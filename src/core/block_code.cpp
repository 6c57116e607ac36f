#include "core/block_code.hpp"

#include <array>
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
  if (mm > diagword::kMaxM) {
    // Bit-serial fallback for blocks wider than one word (matches
    // ReferenceBlockCodec::encode).
    for (std::size_t r = 0; r < mm; ++r) {
      for (std::size_t c = 0; c < mm; ++c) {
        if (data.get(row0 + r, col0 + c)) {
          check.leading.flip(geometry_.leading(r, c));
          check.counter.flip(geometry_.counter(r, c));
        }
      }
    }
    return check;
  }
  // Rotate-and-XOR accumulation over row words: row r contributes
  // rotl(seg, r) to the leading parities (bit c -> (r + c) mod m) and
  // rotr(seg, r) to a pre-reflection counter accumulator, reflected once
  // per block (bit c -> (r - c) mod m); see diagword in core/geometry.
  // The peel is dispatched (scalar/AVX2/AVX-512 by CPU).
  const std::span<const util::BitVector> rows = data.rows_span();
  std::array<const std::uint64_t*, diagword::kMaxM> ptrs;
  for (std::size_t r = 0; r < mm; ++r) ptrs[r] = rows[row0 + r].words().data();
  std::uint64_t lead = 0;
  std::uint64_t cnt = 0;
  util::simd::kernels().block_peel(ptrs.data(), mm, col0, &lead, &cnt);
  check.leading.set_low_word(lead);
  check.counter.set_low_word(diagword::reflect(cnt, mm));
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
