// pimecc -- oracle/processing_xbar.hpp
//
// Processing crossbar (PC): the pipelined XOR3 engine of the CMEM (paper
// Section IV, Figure 4).
//
// Each PC lane owns 11 memristors (the Table II "2 x 11 x k x n" term):
// three operand cells and eight intermediate/result cells.  XOR3 is
// computed as XNOR(XNOR(a,b),c) where each 2-input XNOR takes exactly four
// MAGIC NORs -- eight NOR cycles total, matching the paper's "XOR3 is
// performed with 8 MAGIC NOR operations".
//
// Operands arrive by inter-crossbar MAGIC NOT, which *inverts*: the PC
// holds a', b', c'.  XOR3 of three inverted operands is the inverse of
// XOR3(a,b,c); the write-back MAGIC NOT inverts once more, so the check-bit
// crossbar receives the true value  old_check (+) old_data (+) new_data.
#pragma once

#include <cstddef>

#include "oracle/reference_crossbar.hpp"
#include "util/bitvector.hpp"

namespace pimecc::arch {

/// One processing crossbar with `lanes` parallel XOR3 lanes.
class ProcessingXbar {
 public:
  /// Column roles inside a lane.
  enum Column : std::size_t {
    kA = 0, kB = 1, kC = 2,
    kN1 = 3, kN2 = 4, kN3 = 5, kT = 6,       // first XNOR: t = XNOR(a,b)
    kM1 = 7, kM2 = 8, kM3 = 9, kResult = 10,  // second XNOR: res = XNOR(t,c)
    kColumns = 11,
  };

  explicit ProcessingXbar(std::size_t lanes);

  [[nodiscard]] std::size_t lanes() const noexcept { return xbar_.rows(); }

  /// Initializes all working cells to LRS (one batched MAGIC init cycle).
  void init_working_cells();

  /// Receives an operand column by inter-crossbar MAGIC NOT: the stored
  /// bits are the *inverse* of `true_values`.  One transfer cycle.
  /// `slot` must be kA, kB or kC.
  void load_operand(Column slot, const util::BitVector& true_values);

  /// Runs the 8-NOR XOR3 microprogram (8 cycles on this crossbar).
  /// Requires init_working_cells() then all three operands loaded.
  void compute();

  /// The raw (inverted) result column as stored in the crossbar.
  [[nodiscard]] util::BitVector result_raw() const;

  /// The true XOR3 value as it arrives at the check-bit crossbar after the
  /// inverting write-back transfer.
  [[nodiscard]] util::BitVector writeback_values() const;

  /// Cycle count accumulated on this crossbar.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return xbar_.cycles(); }
  [[nodiscard]] std::uint64_t nor_ops() const noexcept { return xbar_.nor_ops(); }

 private:
  xbar::ReferenceCrossbar xbar_;
};

/// Pure-function reference: XOR3 via the same dataflow, for tests.
[[nodiscard]] util::BitVector xor3_reference(const util::BitVector& a,
                                             const util::BitVector& b,
                                             const util::BitVector& c);

}  // namespace pimecc::arch
