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

#include <cstddef>
#include <cstdint>

#include "util/modmath.hpp"

namespace pimecc::ecc {

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
