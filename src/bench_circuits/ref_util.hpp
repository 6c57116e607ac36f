// pimecc -- bench_circuits/ref_util.hpp
//
// Small helpers shared by the reference models: BitVector <-> integer
// packing (LSB-first, matching Bus bit order), one or two word operations
// per field, and the reset every in-place model starts with.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstddef>

#include "util/bitvector.hpp"

namespace pimecc::circuits {

/// Makes `out` `width` zero bits; allocation-free once `out` has held that
/// many.
inline void reset_bits(util::BitVector& out, std::size_t width) {
  out.resize(width);
  out.fill(false);
}

/// Reads `width` bits starting at `offset` as an LSB-first integer; only the
/// low 64 bits of a wider field are representable, so bits past the 64th are
/// ignored.
[[nodiscard]] inline std::uint64_t get_bits(const util::BitVector& v,
                                            std::size_t offset, std::size_t width) {
  constexpr std::size_t kBits = util::BitVector::kWordBits;
  width = std::min(width, kBits);
  if (width == 0) return 0;
  assert(offset + width <= v.size());
  const auto words = v.words();
  const std::size_t wi = offset / kBits;
  const std::size_t shift = offset % kBits;
  std::uint64_t x = words[wi] >> shift;
  if (shift + width > kBits) x |= words[wi + 1] << (kBits - shift);
  return width == kBits ? x : x & ((std::uint64_t{1} << width) - 1);
}

/// Writes `width` bits of `value` (LSB-first) starting at `offset`.  A field
/// wider than the 64-bit value zero-extends: bits at index >= 64 are written
/// as 0 (shifting the value by >= 64 would be UB, not zero).
inline void set_bits(util::BitVector& v, std::size_t offset, std::size_t width,
                     std::uint64_t value) {
  constexpr std::size_t kBits = util::BitVector::kWordBits;
  assert(offset + width <= v.size());
  const auto words = v.words_mutable();
  // One chunk of at most 64 bits per pass: the value, then zeros.
  for (std::size_t done = 0; done < width; done += kBits) {
    const std::size_t len = std::min(kBits, width - done);
    const std::uint64_t mask =
        len == kBits ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
    const std::uint64_t bits = done == 0 ? value & mask : 0;
    const std::size_t wi = (offset + done) / kBits;
    const std::size_t shift = (offset + done) % kBits;
    words[wi] = (words[wi] & ~(mask << shift)) | (bits << shift);
    if (shift + len > kBits) {
      const std::size_t spill = kBits - shift;
      words[wi + 1] = (words[wi + 1] & ~(mask >> spill)) | (bits >> spill);
    }
  }
}

}  // namespace pimecc::circuits
