#include "arch/pim_machine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "arch/arch_checks.hpp"
#include "arch/scheduler.hpp"  // xor3_fold_levels
#include "util/rng.hpp"

namespace pimecc::arch {

PimMachine::PimMachine(const ArchParams& params)
    : params_(params),
      mem_((params.validate(), params.n), params.n),
      code_(params.n, params.m) {}

void PimMachine::load(const util::BitMatrix& image) {
  if (image.rows() != n() || image.cols() != n()) {
    throw std::invalid_argument("PimMachine::load: image must be n x n");
  }
  for (std::size_t r = 0; r < n(); ++r) {
    mem_.write_row(r, image.row(r));
  }
  // Initial encode: one batch band walk over the whole array.
  code_.encode_all(mem_.contents());
  counters_.mem_cycles = mem_.cycles();
}

void PimMachine::load_random(util::Rng& rng) {
  util::fill_random(mem_.contents_mutable(), rng);
  mem_.charge_row_writes();  // n row writes, as load() issues them
  code_.encode_all(mem_.contents());
  counters_.mem_cycles = mem_.cycles();
}

void PimMachine::restore(const util::BitMatrix& data, const ecc::ArrayCode& code,
                         const MachineCounters& counters,
                         const xbar::Crossbar::Counters& mem_counters) {
  if (data.rows() != n() || data.cols() != n()) {
    throw std::invalid_argument("PimMachine::restore: data must be n x n");
  }
  if (code.n() != n() || code.m() != m()) {
    throw std::invalid_argument(
        "PimMachine::restore: check-code geometry mismatch");
  }
  // Direct state replacement, no controller writes and no re-encode: the
  // snapshot's counters already account for everything that produced this
  // state, and the check bits must come back verbatim (they may be
  // intentionally inconsistent, e.g. mid-fault-injection).
  mem_.contents_mutable() = data;
  code_ = code;
  mem_.restore_counters(mem_counters);
  counters_ = counters;
}

void PimMachine::update_check_bits_for_column(std::size_t col,
                                              const util::BitVector& delta) {
  code_.apply_column_delta(col, delta);
  charge_line_updates(1);
}

void PimMachine::update_check_bits_for_row(std::size_t row,
                                           const util::BitVector& delta) {
  code_.apply_row_deltas(row, 1, delta.words().data(), delta.word_count());
  charge_line_updates(1);
}

void PimMachine::charge_line_updates(std::uint64_t lines) {
  // Protocol cost per line, identical to the reference datapath: two
  // MEM->CMEM transfers serialize with the MEM; the XOR3 passes and
  // write-backs run in the CMEM.
  counters_.mem_cycles += lines * 2 * params_.transfer_cycles;
  counters_.cmem_cycles += lines * (params_.transfer_cycles +
                                    params_.xor3_cycles +
                                    params_.writeback_cycles);
  counters_.critical_ops += lines;
}

void PimMachine::write_row_protected(std::size_t r, const util::BitVector& values) {
  detail::require_index(r, n(), "row");
  if (values.size() != n()) {
    throw std::invalid_argument("PimMachine::write_row_protected: size mismatch");
  }
  old_line_ = mem_.contents().row(r);
  mem_.write_row(r, values);
  counters_.mem_cycles = mem_.cycles();
  old_line_ ^= values;  // delta
  update_check_bits_for_row(r, old_line_);
}

void PimMachine::magic_nor_rows_protected(std::span<const std::size_t> in_cols,
                                          std::size_t out_col,
                                          std::span<const std::size_t> rows) {
  // The crossbar validates before it mutates; the lane pass emits old XOR
  // new of the output column itself.
  mem_.magic_nor(xbar::Orientation::kRow, in_cols, out_col, rows, &old_line_);
  counters_.mem_cycles = mem_.cycles();
  update_check_bits_for_column(out_col, old_line_);
}

void PimMachine::magic_nor_cols_protected(std::span<const std::size_t> in_rows,
                                          std::size_t out_row,
                                          std::span<const std::size_t> cols) {
  // row() bounds-checks out_row; the crossbar validates the rest before it
  // mutates.
  old_line_ = mem_.contents().row(out_row);
  mem_.magic_nor(xbar::Orientation::kColumn, in_rows, out_row, cols);
  counters_.mem_cycles = mem_.cycles();
  old_line_ ^= mem_.contents().row(out_row);  // delta
  update_check_bits_for_row(out_row, old_line_);
}

void PimMachine::magic_init_rows_protected(std::span<const std::size_t> cols) {
  if (cols.size() > n() / util::BitVector::kWordBits) {
    // Wide batch (Crossbar::magic_init's mask-OR rule): one row-program
    // op, validated by the crossbar and its net row delta folded band by
    // band, instead of one column gather and line update per init line.  A
    // column too wide for 32 bits stays out of range.
    init_cols_.clear();
    for (const std::size_t c : cols) {
      init_cols_.push_back(static_cast<std::uint32_t>(
          std::min<std::size_t>(c, std::numeric_limits<std::uint32_t>::max())));
    }
    const xbar::RowOp init{xbar::RowOp::Kind::kInit, 0, init_cols_};
    run_rows_protected({&init, 1});
    return;
  }
  detail::require_distinct(cols, n(), "init column");
  init_snapshots_.resize(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    mem_.contents().column_into(cols[i], init_snapshots_[i]);
  }
  mem_.magic_init(xbar::Orientation::kRow, cols);
  counters_.mem_cycles = mem_.cycles();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    // Init drives every cell of the line to LRS, so delta = NOT(old).
    init_snapshots_[i].invert();
    update_check_bits_for_column(cols[i], init_snapshots_[i]);
  }
}

void PimMachine::magic_init_cols_protected(std::span<const std::size_t> rows) {
  detail::require_distinct(rows, n(), "init row");
  init_snapshots_.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    init_snapshots_[i] = mem_.contents().row(rows[i]);
  }
  mem_.magic_init(xbar::Orientation::kColumn, rows);
  counters_.mem_cycles = mem_.cycles();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    init_snapshots_[i].invert();
    update_check_bits_for_row(rows[i], init_snapshots_[i]);
  }
}

void PimMachine::run_rows_protected(std::span<const xbar::RowOp> ops) {
  if (ops.empty()) return;
  run_and_fold(ops, {});
  charge_program(0, ops);
}

void PimMachine::run_rows_protected(std::span<const xbar::RowOp> ops,
                                    const xbar::RowIo& io) {
  run_and_fold(ops, io);
  mem_.charge_row_writes();
  charge_program(n(), ops);
}

void PimMachine::run_and_fold(std::span<const xbar::RowOp> ops,
                              const xbar::RowIo& io) {
  // Each tile's delta rows go straight to the codec, which folds them band
  // piece by band piece.  Two captured words fit RowDeltaSink's inline
  // storage, so the sink costs no allocation.
  const std::size_t words = mem_.contents().row(0).word_count();
  const auto fold = [this, words](std::size_t row0, std::size_t count,
                                  const util::BitVector::Word* delta) {
    code_.apply_row_deltas(row0, count, delta, words);
  };
  // The crossbar validates the program before anything changes, and the
  // callers charge after it.
  mem_.run_rows(ops, fold, io);
}

void PimMachine::charge_program(std::size_t row_writes,
                                std::span<const xbar::RowOp> ops) {
  // The per-call charges in closed form: every row write's and op's line
  // updates, and the mem_cycles rule (MachineCounters) -- the crossbar's
  // cycles plus the last call's transfers (a row write is one line).
  const auto lines_of = [](const xbar::RowOp& op) -> std::uint64_t {
    return op.kind == xbar::RowOp::Kind::kInit ? op.lines.size() : 1;
  };
  std::uint64_t lines = row_writes;
  for (const xbar::RowOp& op : ops) lines += lines_of(op);
  charge_line_updates(lines);
  const std::uint64_t last_lines = ops.empty() ? 1 : lines_of(ops.back());
  counters_.mem_cycles = mem_.cycles() + last_lines * 2 * params_.transfer_cycles;
}

CheckReport PimMachine::charge_checks(const ecc::ScrubReport& sr,
                                      std::size_t bands) {
  // Cost model, per band: m MEM copy cycles; the XOR3 fold tree, syndrome
  // compare and flag evaluation run in the CMEM off the MEM's critical path.
  counters_.mem_cycles += bands * m();
  counters_.cmem_cycles +=
      bands * (xor3_fold_levels(m() + 1) * params_.xor3_cycles + 2 + 1);
  counters_.checks += bands;
  CheckReport report;
  report.blocks_checked = sr.blocks_checked;
  report.corrected_data = sr.corrected_data;
  report.corrected_check = sr.corrected_check;
  report.uncorrectable = sr.uncorrectable;
  return report;
}

CheckReport PimMachine::check_block_row(std::size_t row) {
  detail::require_index(row, n(), "row");
  return charge_checks(
      code_.scrub_band(mem_.contents_mutable(), true, row / m()), 1);
}

CheckReport PimMachine::check_block_col(std::size_t col) {
  detail::require_index(col, n(), "column");
  return charge_checks(
      code_.scrub_band(mem_.contents_mutable(), false, col / m()), 1);
}

CheckReport PimMachine::scrub() {
  // One whole-array walk, charged as the n/m block-row checks it replaces
  // (blocks are independent, so the repairs are identical too).
  ++counters_.scrubs;
  return charge_checks(code_.scrub(mem_.contents_mutable()),
                       params_.blocks_per_side());
}

bool PimMachine::ecc_consistent() const {
  return code_.consistent_with(mem_.contents());
}

void PimMachine::inject_data_error(std::size_t r, std::size_t c) {
  detail::require_index(r, n(), "row");
  detail::require_index(c, n(), "column");
  mem_.contents_mutable().flip(r, c);
}

void PimMachine::inject_check_error(Axis axis, std::size_t diagonal,
                                    ecc::BlockIndex block) {
  detail::require_index(diagonal, m(), "diagonal");
  code_.flip_check_bit(block, axis == Axis::kLeading, diagonal);  // validates block
}

}  // namespace pimecc::arch
