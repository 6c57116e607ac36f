// pimecc -- util/bitmatrix.hpp
//
// Dense 2-D bit matrix used for crossbar contents, ECC block views, and
// golden-model comparisons.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bitvector.hpp"

namespace pimecc::util {

/// Row-major dense bit matrix.
///
/// Rows are stored as independent BitVectors so entire rows can be moved,
/// XORed, and NORed word-parallel -- mirroring the row-parallel nature of
/// MAGIC operations.  Column access is provided (bit-by-bit) for
/// column-parallel operations and for diagonal extraction.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols);

  /// Becomes a zero rows x cols matrix.  Each kept row keeps its word
  /// buffer, so a matrix reused across shapes stops allocating once every
  /// row has grown to the widest shape it holds (rows beyond `rows` are
  /// freed).
  void reshape(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] bool get(std::size_t r, std::size_t c) const noexcept;
  void set(std::size_t r, std::size_t c, bool value) noexcept;
  /// Checked accessor; throws std::out_of_range.
  [[nodiscard]] bool at(std::size_t r, std::size_t c) const;
  /// Flips the bit and returns its new value.
  bool flip(std::size_t r, std::size_t c) noexcept;

  [[nodiscard]] const BitVector& row(std::size_t r) const;
  [[nodiscard]] BitVector& row(std::size_t r);

  /// Direct, bounds-unchecked view of the row storage (one BitVector per
  /// row), inlineable into engine hot loops.  Prefer row()/column() in
  /// non-critical code.
  [[nodiscard]] std::span<BitVector> rows_span() noexcept { return rows_storage_; }
  [[nodiscard]] std::span<const BitVector> rows_span() const noexcept {
    return rows_storage_;
  }

  /// Extracts column `c` as a BitVector of length rows().
  [[nodiscard]] BitVector column(std::size_t c) const;
  /// Extracts column `c` into `out` (resized to rows()); allocation-free
  /// once `out` has capacity.  One strided word read + one shift/OR per
  /// row, so hot paths that already walk the rows should derive column
  /// data in that walk instead.
  void column_into(std::size_t c, BitVector& out) const;
  /// ORs column `c` into `acc` (length must equal rows()), for folding
  /// several columns into one row-indexed vector without temporaries.
  void or_column_into(std::size_t c, BitVector& acc) const;
  /// Overwrites column `c` from `values` (length must equal rows()).
  void set_column(std::size_t c, const BitVector& values);
  /// row(r) <- (row(r) AND NOT mask) OR (values AND mask): lane-masked row
  /// update; `values` and `mask` must have length cols().
  void row_assign_masked(std::size_t r, const BitVector& values,
                         const BitVector& mask);

  void fill(bool value) noexcept;

  /// Total number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;
  /// Number of differing bits against another matrix of equal shape.
  [[nodiscard]] std::size_t hamming_distance(const BitMatrix& other) const;

  bool operator==(const BitMatrix& other) const noexcept = default;

 private:
  std::vector<BitVector> rows_storage_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

}  // namespace pimecc::util
