// pimecc -- oracle/reference_pim_machine.hpp
//
// Bit-serial golden model of the protected PIM machine.
//
// This is the original composition of the Section IV architecture, retained
// verbatim (modulo the uniform validate-before-mutate convention shared
// with PimMachine): the MEM runs on the bit-serial ReferenceCrossbar, check
// bits are (re)encoded block-by-block through ReferenceBlockCodec, the
// critical-operation protocol routes whole lines through the barrel-shifter
// bank into genuine XOR3 microprograms in the processing crossbars, and
// every line snapshot is peeled one bit at a time.
//
// It exists purely as the reference in differential tests and benchmarks --
// the production machine is PimMachine (pim_machine.hpp), which computes
// check-bit updates differentially on util/simd's rotate+XOR kernels and
// must match this model exactly in memory contents, check state, cycle
// counters, correction counts, and throwing behavior on any program.  Keep
// the two classes' public APIs identical (the same contract as
// ReferenceCrossbar vs Crossbar) -- the one sanctioned difference is the
// check-state accessor, which exposes each machine's own storage:
// check_memory() (physical CMEM crossbars) here vs check_code() (functional
// ArrayCode) on PimMachine; CheckMemory::matches bridges the two in the
// differential harness.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"  // CheckReport, MachineCounters
#include "oracle/check_memory.hpp"
#include "oracle/processing_xbar.hpp"
#include "oracle/reference_block_code.hpp"
#include "oracle/reference_crossbar.hpp"
#include "oracle/shifter.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::arch {

/// Bit-serial twin of PimMachine; see file comment.
class ReferencePimMachine {
 public:
  explicit ReferencePimMachine(const ArchParams& params);

  [[nodiscard]] const ArchParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
  [[nodiscard]] std::size_t m() const noexcept { return params_.m; }

  void load(const util::BitMatrix& image);
  [[nodiscard]] const util::BitMatrix& data() const noexcept {
    return mem_.contents();
  }
  void write_row_protected(std::size_t r, const util::BitVector& values);

  void magic_nor_rows_protected(std::span<const std::size_t> in_cols,
                                std::size_t out_col);
  void magic_nor_cols_protected(std::span<const std::size_t> in_rows,
                                std::size_t out_row);
  void magic_init_rows_protected(std::span<const std::size_t> cols);
  void magic_init_cols_protected(std::span<const std::size_t> rows);
  /// The per-op protocol loop PimMachine::run_rows_protected must equal:
  /// the whole program validated first, then each op through
  /// magic_init_rows_protected / magic_nor_rows_protected.
  void run_rows_protected(std::span<const xbar::RowOp> ops);
  /// The composition PimMachine's I/O pass must equal: the program and
  /// its I/O validated first, then one write_row_protected per row (the
  /// row's contents with its inputs and constants written), this
  /// run_rows_protected(ops), and a per-cell read of the outputs.
  void run_rows_protected(std::span<const xbar::RowOp> ops,
                          const xbar::RowIo& io);

  CheckReport check_block_row(std::size_t row);
  CheckReport check_block_col(std::size_t col);
  CheckReport scrub();

  [[nodiscard]] bool ecc_consistent() const;

  void inject_data_error(std::size_t r, std::size_t c);
  void inject_check_error(Axis axis, std::size_t diagonal, ecc::BlockIndex block);

  [[nodiscard]] const MachineCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const CheckMemory& check_memory() const noexcept { return cmem_; }

 private:
  void update_check_bits_for_line(bool along_rows, std::size_t line,
                                  const util::BitVector& old_line,
                                  const util::BitVector& new_line);
  CheckReport check_block_band(bool row_band, std::size_t band);
  void repair_block(ecc::BlockIndex block, const ecc::DecodeResult& result);

  ArchParams params_;
  xbar::ReferenceCrossbar mem_;
  CheckMemory cmem_;
  ProcessingXbar pc_leading_;
  ProcessingXbar pc_counter_;
  CheckingXbar checker_;
  ShifterBank shifters_;
  ecc::ReferenceBlockCodec codec_;
  MachineCounters counters_;
};

}  // namespace pimecc::arch
