// pimecc -- arch/pim_machine.hpp
//
// The top-level public API: one MEM crossbar with the paper's full ECC
// extension attached (Figure 3) -- check-bit storage, processing crossbars,
// checking crossbar, barrel shifters and controllers -- operated
// functionally and bit-accurately.
//
// Every stateful-logic operation issued through this facade runs the
// Section IV critical-operation protocol:
//   1. cancel the old data's effect on the check bits,
//   2. perform the MAGIC operation in the MEM,
//   3. add the new data's effect on the check bits,
// and soft errors can be injected at any point; checks before use and
// periodic scrubs then detect/correct them exactly as the architecture
// would.
//
// This is the *word-parallel* production machine: check bits live in an
// ecc::ArrayCode (one diagonal-parity family per 64-bit word), initial
// encodes and verifications ride the encode_all/scrub/consistent_with band
// walks, and protocol steps 1+3 are computed *differentially* from the
// written line via the diagword kernel -- one rotate+XOR per affected
// family, never a re-encode (ArrayCode::apply_line_delta).  Cycle
// accounting is unchanged: the protocol's analytic costs are identical to
// routing the lines through the shifter bank into genuine XOR3
// microprograms.  The original bit-serial composition is retained verbatim
// as a test oracle (oracle/reference_pim_machine.hpp) and must match this
// machine exactly in contents, check state, cycle counters, and correction
// counts on any program -- pinned by tests/test_arch_engine.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::arch {

/// Outcome of one ECC check over a band of blocks.
struct CheckReport {
  std::size_t blocks_checked = 0;
  std::size_t corrected_data = 0;
  std::size_t corrected_check = 0;
  std::size_t uncorrectable = 0;

  [[nodiscard]] bool all_clean() const noexcept {
    return corrected_data + corrected_check + uncorrectable == 0;
  }
  bool operator==(const CheckReport&) const noexcept = default;
};

/// Cycle accounting split by unit, in the spirit of the paper's latency
/// model: MEM cycles serialize with computation; CMEM cycles overlap except
/// where the protocol forces ordering.
struct MachineCounters {
  std::uint64_t mem_cycles = 0;
  std::uint64_t cmem_cycles = 0;
  std::uint64_t critical_ops = 0;
  std::uint64_t checks = 0;
  std::uint64_t scrubs = 0;
  bool operator==(const MachineCounters&) const noexcept = default;
};

/// MEM + CMEM processing-in-memory unit with diagonal-parity ECC.
class PimMachine {
 public:
  explicit PimMachine(const ArchParams& params);

  [[nodiscard]] const ArchParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
  [[nodiscard]] std::size_t m() const noexcept { return params_.m; }

  // --- data movement -------------------------------------------------------
  /// Loads an n x n image into the MEM and (re)encodes all check bits.
  void load(const util::BitMatrix& image);
  /// Reads the MEM contents (no ECC check; use check/scrub for that).
  [[nodiscard]] const util::BitMatrix& data() const noexcept {
    return mem_.contents();
  }
  /// Controller write of one full row with continuous check-bit update.
  void write_row_protected(std::size_t r, const util::BitVector& values);

  // --- protected stateful logic -------------------------------------------
  /// Row-parallel MAGIC NOR with the critical-operation protocol:
  /// out(r, out_col) = NOR_i in(r, in_cols[i]) for each selected row.
  /// Output cells must have been initialized (magic_init_protected).
  /// Empty `rows` selects all rows.
  void magic_nor_rows_protected(std::span<const std::size_t> in_cols,
                                std::size_t out_col,
                                std::span<const std::size_t> rows = {});
  /// Column-parallel variant: out(out_row, c) = NOR_i in(in_rows[i], c).
  void magic_nor_cols_protected(std::span<const std::size_t> in_rows,
                                std::size_t out_row,
                                std::span<const std::size_t> cols = {});
  /// Initialization (to LRS) of whole lines, ECC-maintained: for
  /// row-orientation, initializes the given columns across all rows.
  /// Lines must be distinct (a duplicate would corrupt the check update).
  void magic_init_rows_protected(std::span<const std::size_t> cols);
  void magic_init_cols_protected(std::span<const std::size_t> rows);

  // --- checking ------------------------------------------------------------
  /// The paper's before-use check: verifies (and repairs) all blocks of the
  /// block-row containing `row`.
  CheckReport check_block_row(std::size_t row);
  /// Verifies all blocks of the block-column containing `col`.
  CheckReport check_block_col(std::size_t col);
  /// Periodic full-memory check.
  CheckReport scrub();

  /// True iff the stored check bits are exactly consistent with the MEM
  /// data (golden-model invariant used heavily in tests).
  [[nodiscard]] bool ecc_consistent() const;

  // --- fault injection hooks ------------------------------------------------
  /// Flips one data bit (simulated soft error).
  void inject_data_error(std::size_t r, std::size_t c);
  /// Flips one check bit.
  void inject_check_error(Axis axis, std::size_t diagonal, ecc::BlockIndex block);

  [[nodiscard]] const MachineCounters& counters() const noexcept { return counters_; }
  /// The check-bit state (functional view of the CMEM contents).
  [[nodiscard]] const ecc::ArrayCode& check_code() const noexcept { return code_; }

  // --- workload observability -----------------------------------------------
  /// Per-row wordline-activation accounting of the MEM crossbar (see
  /// xbar::Crossbar::row_activations): the workload signal consumed by the
  /// scenario-diversity fault models (fault/disturbance.hpp) and the
  /// activation-triggered scrub policies (reliability/scrub_policy.hpp).
  /// Campaign-local observability -- not checkpointed; restore() leaves
  /// the history untouched and reset starts it fresh.
  [[nodiscard]] std::uint64_t mem_row_activations(std::size_t r) const {
    return mem_.row_activations(r);
  }
  [[nodiscard]] std::vector<std::uint64_t> mem_row_activation_snapshot() const {
    return mem_.row_activation_snapshot();
  }
  void reset_mem_row_activations() noexcept { mem_.reset_row_activations(); }

  // --- checkpointing (arch/checkpoint.hpp) ---------------------------------
  /// MEM crossbar counter snapshot: the machine's mem_cycles accounting is
  /// derived from the crossbar's own counter, so checkpoints must carry it.
  [[nodiscard]] xbar::Crossbar::Counters mem_counters() const noexcept {
    return mem_.counters();
  }
  /// Replaces the complete machine state with a previously captured
  /// snapshot: MEM image, check bits (taken verbatim -- they may be
  /// deliberately inconsistent with the data, e.g. under injected faults),
  /// and both counter sets.  Validates every shape against this machine's
  /// geometry *before* mutating anything, so a throwing restore leaves the
  /// machine untouched.
  void restore(const util::BitMatrix& data, const ecc::ArrayCode& code,
               const MachineCounters& counters,
               const xbar::Crossbar::Counters& mem_counters);

 private:
  /// Runs protocol steps 1+3 for a line write, differentially: `delta` is
  /// old XOR new of the written line.  `along_rows` true means the written
  /// line is a column (row-parallel op).
  void update_check_bits_for_line(bool along_rows, std::size_t line,
                                  const util::BitVector& delta);
  /// Charges `bands` block-row/column checks to the counters and converts
  /// the codec's report.
  CheckReport charge_checks(const ecc::ScrubReport& sr, std::size_t bands);

  ArchParams params_;
  xbar::Crossbar mem_;
  ecc::ArrayCode code_;
  MachineCounters counters_;

  // Scratch buffers reused across operations so the protected hot path is
  // allocation-free in steady state.
  util::BitVector old_line_;  ///< line snapshot, then delta in place
  util::BitVector new_line_;
  std::vector<util::BitVector> init_snapshots_;
};

}  // namespace pimecc::arch
