#include "core/block_code.hpp"

#include <stdexcept>

#include "util/simd.hpp"

namespace pimecc::ecc {

void BlockCodec::require_window(const util::BitMatrix& data, std::size_t row0,
                                std::size_t col0) const {
  if (row0 + m() > data.rows() || col0 + m() > data.cols()) {
    throw std::out_of_range("BlockCodec: block window exceeds matrix bounds");
  }
}

CheckBits BlockCodec::encode(const util::BitMatrix& data, std::size_t row0,
                             std::size_t col0) const {
  require_window(data, row0, col0);
  const std::size_t mm = m();
  CheckBits check(mm);
  // Rotate-and-XOR accumulation over row words: row r contributes
  // rotl(seg, r) to the leading parities (bit c -> (r + c) mod m) and
  // rotr(seg, r) to a pre-reflection counter accumulator, reflected once
  // per block (bit c -> (r - c) mod m); see diagword in core/geometry.
  detail::Scratch<std::uint64_t, 1> cnt((mm + 63) / 64);
  peel(data, row0, col0, check.leading.words_mutable().data(), cnt.data());
  util::simd::xor_rotated(check.counter.words_mutable().data(), 0, cnt.data(),
                          0, mm, 0, true);
  return check;
}

Syndrome BlockCodec::compute_syndrome(const util::BitMatrix& data, std::size_t row0,
                                      std::size_t col0, const CheckBits& stored) const {
  if (stored.leading.size() != m() || stored.counter.size() != m()) {
    throw std::invalid_argument("BlockCodec: stored check bits have wrong size");
  }
  const CheckBits fresh = encode(data, row0, col0);
  Syndrome s(m());
  s.leading = fresh.leading ^ stored.leading;
  s.counter = fresh.counter ^ stored.counter;
  return s;
}

DecodeResult BlockCodec::classify(const Syndrome& syndrome) const {
  return detail::decode(
      geometry_, {syndrome.leading.count(), syndrome.leading.find_first()},
      {syndrome.counter.count(), syndrome.counter.find_first()});
}

DecodeResult BlockCodec::check_and_correct(util::BitMatrix& data, std::size_t row0,
                                           std::size_t col0, CheckBits& stored) const {
  const Syndrome syndrome = compute_syndrome(data, row0, col0, stored);
  const DecodeResult result = classify(syndrome);
  switch (result.status) {
    case DecodeStatus::kCorrectedData: {
      const Cell cell = *result.data_error;
      data.flip(row0 + cell.r, col0 + cell.c);
      break;
    }
    case DecodeStatus::kCorrectedCheck: {
      const CheckBitLocation loc = *result.check_error;
      if (loc.on_leading_axis) {
        stored.leading.flip(loc.index);
      } else {
        stored.counter.flip(loc.index);
      }
      break;
    }
    case DecodeStatus::kClean:
    case DecodeStatus::kDetectedUncorrectable:
      break;
  }
  return result;
}

void BlockCodec::update_for_write(CheckBits& check, std::size_t r, std::size_t c,
                                  bool old_value, bool new_value) const {
  if (old_value == new_value) return;
  check.leading.flip(geometry_.leading(r, c));
  check.counter.flip(geometry_.counter(r, c));
}

}  // namespace pimecc::ecc
