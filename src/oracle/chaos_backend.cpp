#include "oracle/chaos_backend.hpp"

#include <algorithm>
#include <stdexcept>

namespace pimecc::util::chaos {

std::vector<std::uint8_t> truncated(std::span<const std::uint8_t> bytes,
                                    std::size_t size) {
  const std::size_t keep = std::min(size, bytes.size());
  return std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + keep);
}

std::vector<std::uint8_t> bit_flipped(std::span<const std::uint8_t> bytes,
                                      std::uint64_t bit_index) {
  if (bit_index >= static_cast<std::uint64_t>(bytes.size()) * 8) {
    throw std::out_of_range("chaos::bit_flipped: bit index out of range");
  }
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  out[static_cast<std::size_t>(bit_index / 8)] ^=
      static_cast<std::uint8_t>(1u << (bit_index % 8));
  return out;
}

// ------------------------------------------------------------ ChaosBackend

void ChaosBackend::write_file(const std::string& path,
                              std::span<const std::uint8_t> bytes) {
  ++log_.writes;
  if (plan_.fail_opens > 0) {
    --plan_.fail_opens;
    ++log_.opens_failed;
    throw IoError("chaos: injected transient open failure for '" + path + "'");
  }
  if (plan_.tear_after.has_value()) {
    const std::uint64_t keep = *plan_.tear_after;
    plan_.tear_after.reset();
    ++log_.writes_torn;
    delegate_->write_file(path,
                          bytes.subspan(0, std::min<std::size_t>(
                                               bytes.size(),
                                               static_cast<std::size_t>(keep))));
    throw IoError("chaos: injected torn write for '" + path + "'");
  }
  if (plan_.corrupt_bit.has_value()) {
    const std::uint64_t bit = *plan_.corrupt_bit;
    plan_.corrupt_bit.reset();
    ++log_.bits_corrupted;
    delegate_->write_file(path, bit_flipped(bytes, bit));
    return;  // "succeeds": silent corruption, only the CRC can catch it
  }
  delegate_->write_file(path, bytes);
}

void ChaosBackend::rename_file(const std::string& from, const std::string& to) {
  ++log_.renames;
  if (plan_.fail_rename) {
    plan_.fail_rename = false;
    ++log_.renames_failed;
    throw IoError("chaos: injected rename failure '" + from + "' -> '" + to +
                  "'");
  }
  delegate_->rename_file(from, to);
}

void ChaosBackend::remove_file(const std::string& path) noexcept {
  ++log_.removes;
  delegate_->remove_file(path);
}

bool ChaosBackend::read_file(const std::string& path,
                             std::vector<std::uint8_t>& out) {
  ++log_.reads;
  if (!delegate_->read_file(path, out)) return false;
  if (plan_.short_read.has_value()) {
    const std::uint64_t keep = *plan_.short_read;
    plan_.short_read.reset();
    ++log_.reads_shortened;
    if (keep < out.size()) out.resize(static_cast<std::size_t>(keep));
  }
  return true;
}

bool ChaosBackend::exists(const std::string& path) {
  return delegate_->exists(path);
}

void ChaosBackend::backoff(std::size_t) { ++log_.backoffs; }

}  // namespace pimecc::util::chaos
