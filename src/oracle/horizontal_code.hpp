// pimecc -- oracle/horizontal_code.hpp
//
// The strawman ECC of paper Section III / Figure 2(a): parity computed over
// *horizontal* groups of g data bits (e.g. the eighth bit of every byte).
//
// It exists here as the comparison baseline for the update-cost argument:
// a row-parallel MAGIC op touches each horizontal group at most once
// (Θ(1) update), but a column-parallel op writes an entire row at once, so
// one group has all g of its data bits changed and the check bit needs the
// whole group re-read -- Θ(g) update cycles (Θ(n) for whole-row groups).
#pragma once

#include <cstddef>
#include <vector>

#include "core/array_code.hpp"  // CellWrite
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::ecc {

/// Horizontal parity over groups of `group_size` consecutive bits in a row.
class HorizontalCode {
 public:
  /// Throws std::invalid_argument unless group_size divides n (both > 0).
  HorizontalCode(std::size_t n, std::size_t group_size);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t group_size() const noexcept { return group_; }
  [[nodiscard]] std::size_t groups_per_row() const noexcept { return n_ / group_; }

  /// Recomputes every group parity from `data` (n x n).
  void encode_all(const util::BitMatrix& data);

  /// Stored parity of group `g` in row `r`.
  [[nodiscard]] bool parity(std::size_t r, std::size_t g) const;

  /// Continuous update, mirroring ArrayCode::apply_writes.
  void apply_writes(const std::vector<CellWrite>& writes);

  /// True iff all stored parities match `data`.
  [[nodiscard]] bool consistent_with(const util::BitMatrix& data) const;

  /// Detection-only check of one group; horizontal parity has no correction
  /// capability (one parity bit cannot locate the error inside the group).
  [[nodiscard]] bool group_has_error(const util::BitMatrix& data, std::size_t r,
                                     std::size_t g) const;

  /// Paper Section III cost model: number of *data-bit reads* needed to
  /// bring all check bits up to date after one parallel operation, when
  /// parity is maintained incrementally.  A group with exactly one changed
  /// bit costs 1 (XOR of the delta); a group with more than one changed bit
  /// must be re-read in full, costing group_size reads.  A row-parallel op
  /// therefore costs Θ(#writes); a column-parallel op that rewrote a whole
  /// row costs Θ(n) for the single spanned row.
  [[nodiscard]] std::size_t update_cost_reads(
      const std::vector<CellWrite>& writes) const;

 private:
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t g) const;

  std::size_t n_;
  std::size_t group_;
  util::BitVector parities_;  // row-major [row][group]
};

}  // namespace pimecc::ecc
