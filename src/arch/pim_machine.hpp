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
// ecc::ArrayCode (two packed n-bit rows per block-row band), initial
// encodes and verifications ride the encode_all/scrub/consistent_with band
// walks, and protocol steps 1+3 are computed *differentially* from the
// written line via the rotation kernel -- one rotate+XOR per affected
// family, never a re-encode: a written column through
// ArrayCode::apply_column_delta, a written row through
// ArrayCode::apply_row_deltas.  The deltas come from the pass that already
// touches the data: a row-parallel NOR's lane loop emits its output
// column's delta.  A row program (run_rows_protected) goes further: parity
// is linear, so the check-bit change of the op sequence is the parity of
// its *net* row delta, which the bit-sliced Crossbar::run_rows hands over
// one 64-row tile at a time and this machine passes straight to
// ArrayCode::apply_row_deltas, which folds it through the encode band
// kernel one band piece at a time -- one band walk per band for the
// program instead of one line update per op.  The row program can carry
// its I/O (xbar::RowIo): the same tile pass writes the inputs and
// constants and reads the outputs, the writes' old XOR new rows join the
// net delta, and the n protected row writes this replaces are charged in
// closed form.  A wide batched init (more lines than n/64) runs as a
// one-op row program.
// Cycle accounting is unchanged: the protocol's analytic costs are
// identical to routing the lines through the shifter bank into genuine XOR3
// microprograms, op by op.  The original
// bit-serial composition is retained verbatim as a test oracle
// (oracle/reference_pim_machine.hpp) and must match this machine exactly in
// contents, check state, cycle counters, and correction counts on any
// program -- pinned by tests/test_arch_engine.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::util {
class Rng;
}  // namespace pimecc::util

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
///
/// The mem_cycles rule, as implemented (and pinned by the differential
/// tests and ProtectedRunPinTest): every protected op ends by *assigning*
/// the MEM crossbar's cycle count to mem_cycles and then adds its own line
/// updates' transfer cycles (2 * transfer_cycles per line).  The
/// assignment drops the transfer charges of every earlier op and the
/// m-per-band charge of every earlier check, so after a protected op
/// mem_cycles is the crossbar's cycles plus that last op's transfers.  A row program charges the same
/// closed form; with its I/O it is charged as n row writes (one line each)
/// followed by the program, so an empty op list leaves the last write's
/// value.  cmem_cycles and critical_ops accumulate.
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
  /// load(util::random_bit_matrix(n, n, rng)) without the image: the rows
  /// are drawn straight into the MEM, with the same draws, data, check bits
  /// and counters.
  void load_random(util::Rng& rng);
  /// Reads the MEM contents (no ECC check; use check/scrub for that).
  [[nodiscard]] const util::BitMatrix& data() const noexcept {
    return mem_.contents();
  }
  /// Controller write of one full row with continuous check-bit update.
  void write_row_protected(std::size_t r, const util::BitVector& values);

  // --- protected stateful logic -------------------------------------------
  /// Row-parallel MAGIC NOR with the critical-operation protocol:
  /// out(r, out_col) = NOR_i in(r, in_cols[i]) for each selected row.
  /// Output cells must have been initialized (magic_init_rows_protected).
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
  /// Runs an all-lane row program -- each op a protected init
  /// (magic_init_rows_protected) or NOR over all rows
  /// (magic_nor_rows_protected) -- with the same contents, check bits,
  /// counters and row activations as issuing the ops one by one.  The ops
  /// run bit-sliced (xbar::Crossbar::run_rows) and each 64-row tile's net
  /// row delta goes to ArrayCode::apply_row_deltas as the tile leaves the
  /// pass.  The crossbar validates the whole program
  /// (xbar::check_row_program) before anything changes, so a throwing
  /// program changes nothing.
  void run_rows_protected(std::span<const xbar::RowOp> ops);
  /// One program with its I/O (xbar::RowIo) in a single tile pass: the
  /// same contents, check bits, counters and row activations as n
  /// write_row_protected calls -- row r's current contents with its inputs
  /// and constants written -- then run_rows_protected(ops), then a read of
  /// the output columns into io.outputs.  The writes' old XOR new rows join
  /// the program's net delta, so one row-delta fold covers both, and the
  /// writes are charged in closed form.  The crossbar validates the ops, every
  /// cell and both matrix shapes before anything changes.
  void run_rows_protected(std::span<const xbar::RowOp> ops,
                          const xbar::RowIo& io);

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
  /// Runs protocol steps 1+3 for a written column (a row-parallel op's
  /// output or init line), differentially: `delta` is old XOR new of it.
  void update_check_bits_for_column(std::size_t col,
                                    const util::BitVector& delta);
  /// The same for a written row (a row write or a column-parallel op).
  void update_check_bits_for_row(std::size_t row, const util::BitVector& delta);
  /// Runs a row program (and its I/O) on the MEM, folding each tile's net
  /// row delta into the check bits (ArrayCode::apply_row_deltas).
  void run_and_fold(std::span<const xbar::RowOp> ops, const xbar::RowIo& io);
  /// Charges `row_writes` protected row writes followed by `ops`, as the
  /// per-call entry points would.
  void charge_program(std::size_t row_writes, std::span<const xbar::RowOp> ops);
  /// Charges the protocol cost of `lines` line updates to the counters.
  void charge_line_updates(std::uint64_t lines);
  /// Charges `bands` block-row/column checks to the counters and converts
  /// the codec's report.
  CheckReport charge_checks(const ecc::ScrubReport& sr, std::size_t bands);

  ArchParams params_;
  xbar::Crossbar mem_;
  ecc::ArrayCode code_;
  MachineCounters counters_;

  // Scratch buffers reused across operations so the protected hot path is
  // allocation-free in steady state.
  util::BitVector old_line_;  ///< line delta (snapshot XOR new, or NOR-emitted)
  std::vector<util::BitVector> init_snapshots_;  ///< narrow init columns
  std::vector<std::uint32_t> init_cols_;         ///< wide init as a row op
};

}  // namespace pimecc::arch
