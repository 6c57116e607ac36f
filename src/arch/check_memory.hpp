// pimecc -- arch/check_memory.hpp
//
// Physical layout of the Check Memory (CMEM) check-bit storage and the
// checking crossbar (paper Section IV-A, Figure 4).
//
// Check bits live in 2m small crossbars of dimension (n/m) x (n/m): m for
// leading diagonals and m for counter diagonals (the paper describes the
// leading half "without loss of generality"; Table II counts both:
// 2 x m x (n/m)^2).  Crossbar i of an axis holds, at cell (a, b), the check
// bit of diagonal i of the block a blocks from the left and b from the top.
// Splitting by diagonal index is what lets one connection-unit operation
// address "the ith diagonal of every block in a block-row/column" at once.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "core/block_code.hpp"
#include "util/bitvector.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::arch {

/// Check-bit storage as 2m physical crossbars.
class CheckMemory {
 public:
  explicit CheckMemory(const ArchParams& params);

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t blocks_per_side() const noexcept { return blocks_; }

  /// Read/write one check bit (golden-model access, no cycle cost).
  [[nodiscard]] bool get(Axis axis, std::size_t diagonal,
                         ecc::BlockIndex block) const;
  void set(Axis axis, std::size_t diagonal, ecc::BlockIndex block, bool value);
  /// Flips one check bit (fault injection); returns the new value.
  bool flip(Axis axis, std::size_t diagonal, ecc::BlockIndex block);

  /// Gathers the 2m check bits of one block.
  [[nodiscard]] ecc::CheckBits gather_block(ecc::BlockIndex block) const;
  /// Stores the 2m check bits of one block.
  void store_block(ecc::BlockIndex block, const ecc::CheckBits& bits);

  /// Loads every block's check bits from a functional ArrayCode.
  void load_from(const ecc::ArrayCode& code);
  /// Copies every block's check bits into a functional ArrayCode.
  void store_to(ecc::ArrayCode& code) const;

  /// True iff contents equal `code`'s check bits exactly.
  [[nodiscard]] bool matches(const ecc::ArrayCode& code) const;

  /// Vector of check bits for diagonal `diagonal` of every block in
  /// block-row `block_row` (what the connection unit presents to a PC for a
  /// row-oriented update), length n/m.
  [[nodiscard]] util::BitVector read_diagonal_row(Axis axis, std::size_t diagonal,
                                                  std::size_t block_row) const;
  /// Writes the same shape back.
  void write_diagonal_row(Axis axis, std::size_t diagonal, std::size_t block_row,
                          const util::BitVector& values);
  /// Column-of-blocks variants (for column-parallel MEM operations).
  [[nodiscard]] util::BitVector read_diagonal_col(Axis axis, std::size_t diagonal,
                                                  std::size_t block_col) const;
  void write_diagonal_col(Axis axis, std::size_t diagonal, std::size_t block_col,
                          const util::BitVector& values);

 private:
  [[nodiscard]] const xbar::Crossbar& xb(Axis axis, std::size_t diagonal) const;
  [[nodiscard]] xbar::Crossbar& xb(Axis axis, std::size_t diagonal);
  /// Throws std::out_of_range on a bad block index -- before any state is
  /// touched (poke is an unchecked accessor, so set/flip would otherwise
  /// write out of bounds).
  void require_block(ecc::BlockIndex block) const;

  std::size_t m_;
  std::size_t blocks_;
  // Index: axis-major, diagonal-minor; each crossbar cell (a, b) = block
  // a-from-left (block_col), b-from-top (block_row).
  std::vector<xbar::Crossbar> xbars_;
};

/// Checking crossbar: evaluates which block syndromes are non-zero (paper
/// Section IV-A-4).  Functionally, block b's flag is the OR of its 2m
/// syndrome bits; in MAGIC this is one multi-input NOR into a flag cell
/// plus one NOT, independent of the number of blocks (row-parallel).
class CheckingXbar {
 public:
  explicit CheckingXbar(const ArchParams& params);

  /// Number of memristors (Table II: 2 x n -- n/m blocks x 2m syndrome bits).
  [[nodiscard]] std::size_t memristor_count() const noexcept { return 2 * n_; }

  /// Flags non-zero syndromes; `syndromes` holds one entry per block along
  /// a block-row/column (length n/m).  Adds 2 cycles of CMEM latency.
  [[nodiscard]] util::BitVector nonzero_flags(
      const std::vector<ecc::Syndrome>& syndromes);

  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

 private:
  std::size_t n_;
  std::size_t m_;
  std::uint64_t cycles_ = 0;
};

}  // namespace pimecc::arch
