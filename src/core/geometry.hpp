// pimecc -- core/geometry.hpp
//
// Wrap-around diagonal geometry of an m x m block (paper Section III,
// Figure 2(b,c)).
//
// Cell (r, c) lies on:
//   leading diagonal  (bottom-left to top-right):  (r + c) mod m
//   counter diagonal  (bottom-right to top-left):  (r - c) mod m
//
// For odd m the map (r, c) -> (leading, counter) is a bijection: solving
// r + c = a, r - c = b (mod m) gives r = (a+b)/2, c = (a-b)/2 where the
// division is multiplication by inverse_of_two(m).  This is the paper's
// footnote-1 condition -- for even m two distinct cells can share both
// diagonals, destroying single-error *correction* (detection survives).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "util/modmath.hpp"
#include "util/simd.hpp"

namespace pimecc::ecc {

/// Single-word segment helpers: a block row is an m-bit segment of a
/// BitMatrix row, and for m <= 64 it fits in the low m bits of one word.
/// The leading diagonals of a block are XOR_r rotl(row_r, r) and its
/// counter diagonals reflect(XOR_r rotr(row_r, r)); util/simd's kernels
/// rotate segments of any width, and the paper-model codecs in oracle/
/// build other slopes on these helpers.
namespace diagword {

/// Mask of the low m bits (m in [1, 64]).
[[nodiscard]] constexpr std::uint64_t low_mask(std::size_t m) noexcept {
  return util::simd::low_mask(m);
}

/// Rotates the low m bits of `seg` left by k: bit c -> (c + k) mod m.
/// Total: k is reduced mod m, stray bits of `seg` above position m are
/// discarded, and there is no shift-width UB at m == 64 (the former
/// `seg >> (m - k)` form shifted by 64 when k == 0 was only reachable with
/// k >= m, but the contract is now explicit rather than a caller burden).
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t seg, std::size_t k,
                                           std::size_t m) noexcept {
  return util::simd::rotl(seg, k, m);
}

/// Reflection of the low m bits: bit j -> (m - j) mod m -- the
/// counter-diagonal reordering -- in O(1) word ops.
[[nodiscard]] constexpr std::uint64_t reflect(std::uint64_t seg,
                                              std::size_t m) noexcept {
  return util::simd::reflect(seg, m);
}

/// Extracts bits [bit0, bit0 + m) of a row's backing words as the low m
/// bits of one word (m <= 64).  The caller guarantees the range lies within
/// the row, so at most two words are touched.
[[nodiscard]] std::uint64_t extract(std::span<const std::uint64_t> words,
                                    std::size_t bit0, std::size_t m) noexcept;

}  // namespace diagword

/// Location of a cell inside an m x m block.
struct Cell {
  std::size_t r = 0;
  std::size_t c = 0;
  bool operator==(const Cell&) const noexcept = default;
};

/// Pair of wrap-around diagonal indices identifying a cell (odd m).
struct DiagonalPair {
  std::size_t leading = 0;
  std::size_t counter = 0;
  bool operator==(const DiagonalPair&) const noexcept = default;
};

/// Diagonal index arithmetic for one block size m.
class DiagonalGeometry {
 public:
  /// Throws std::invalid_argument unless m is odd and >= 1 (footnote 1:
  /// odd m is required for diagonals to uniquely index cells).
  explicit DiagonalGeometry(std::size_t m);

  [[nodiscard]] std::size_t m() const noexcept { return m_; }

  /// Leading-diagonal index of (r, c); r and c are taken mod m so callers
  /// may pass absolute crossbar coordinates.
  [[nodiscard]] std::size_t leading(std::size_t r, std::size_t c) const noexcept {
    return (r + c) % m_;
  }

  /// Counter-diagonal index of (r, c).
  [[nodiscard]] std::size_t counter(std::size_t r, std::size_t c) const noexcept {
    return static_cast<std::size_t>(util::floor_mod(
        static_cast<std::int64_t>(r % m_) - static_cast<std::int64_t>(c % m_),
        static_cast<std::int64_t>(m_)));
  }

  [[nodiscard]] DiagonalPair diagonals(std::size_t r, std::size_t c) const noexcept {
    return {leading(r, c), counter(r, c)};
  }

  /// The unique cell lying on both the given leading and counter diagonal.
  /// Indices must be < m (checked).
  [[nodiscard]] Cell locate(DiagonalPair d) const;

 private:
  std::size_t m_;
  std::size_t inv2_;  // inverse of 2 mod m
};

}  // namespace pimecc::ecc
