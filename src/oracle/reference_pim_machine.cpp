#include "oracle/reference_pim_machine.hpp"

#include <stdexcept>

#include "arch/arch_checks.hpp"
#include "arch/scheduler.hpp"  // xor3_fold_levels

namespace pimecc::arch {

ReferencePimMachine::ReferencePimMachine(const ArchParams& params)
    : params_(params),
      mem_((params.validate(), params.n), params.n),
      cmem_(params),
      pc_leading_(params.n),
      pc_counter_(params.n),
      checker_(params),
      shifters_(params.n, params.m),
      codec_(params.m) {}

void ReferencePimMachine::load(const util::BitMatrix& image) {
  if (image.rows() != n() || image.cols() != n()) {
    throw std::invalid_argument("PimMachine::load: image must be n x n");
  }
  for (std::size_t r = 0; r < n(); ++r) {
    mem_.write_row(r, image.row(r));
  }
  // Initial encode: computed block-by-block through the CMEM datapath
  // equivalent (functionally identical to the codec's encode).
  for (std::size_t br = 0; br < params_.blocks_per_side(); ++br) {
    for (std::size_t bc = 0; bc < params_.blocks_per_side(); ++bc) {
      cmem_.store_block({br, bc},
                        codec_.encode(mem_.contents(), br * m(), bc * m()));
    }
  }
  counters_.mem_cycles = mem_.cycles();
}

void ReferencePimMachine::update_check_bits_for_line(
    bool along_rows, std::size_t line, const util::BitVector& old_line,
    const util::BitVector& new_line) {
  const std::size_t groups = params_.blocks_per_side();
  const std::size_t band = line / m();  // block column (row op) or block row
  const std::size_t rem = line % m();

  // Shifter alignments (see oracle/shifter.hpp): for a written column
  // (row-parallel op), leading diagonals align under shift = line mod m and
  // counter diagonals under shift = (-line) mod m; for a written row the
  // counter family additionally runs mirrored.
  const std::size_t neg_rem = (m() - rem) % m();
  const std::size_t lead_shift = rem;
  const std::size_t cnt_shift = neg_rem;
  const bool cnt_reversed = !along_rows;

  const auto old_lead = shifters_.route(old_line, lead_shift, false);
  const auto new_lead = shifters_.route(new_line, lead_shift, false);
  const auto old_cnt = shifters_.route(old_line, cnt_shift, cnt_reversed);
  const auto new_cnt = shifters_.route(new_line, cnt_shift, cnt_reversed);

  auto run_axis = [&](Axis axis, ProcessingXbar& pc,
                      const std::vector<util::BitVector>& old_vecs,
                      const std::vector<util::BitVector>& new_vecs) {
    // Concatenate the m per-diagonal vectors into the PC's n lanes.
    util::BitVector a(n()), b(n()), c(n());
    for (std::size_t d = 0; d < m(); ++d) {
      const util::BitVector stored =
          along_rows ? cmem_.read_diagonal_col(axis, d, band)
                     : cmem_.read_diagonal_row(axis, d, band);
      for (std::size_t g = 0; g < groups; ++g) {
        a.set(d * groups + g, old_vecs[d].get(g));
        b.set(d * groups + g, new_vecs[d].get(g));
        c.set(d * groups + g, stored.get(g));
      }
    }
    pc.init_working_cells();
    pc.load_operand(ProcessingXbar::kA, a);
    pc.load_operand(ProcessingXbar::kB, b);
    pc.load_operand(ProcessingXbar::kC, c);
    pc.compute();
    const util::BitVector updated = pc.writeback_values();
    for (std::size_t d = 0; d < m(); ++d) {
      util::BitVector slice(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        slice.set(g, updated.get(d * groups + g));
      }
      if (along_rows) {
        cmem_.write_diagonal_col(axis, d, band, slice);
      } else {
        cmem_.write_diagonal_row(axis, d, band, slice);
      }
    }
  };

  run_axis(Axis::kLeading, pc_leading_, old_lead, new_lead);
  run_axis(Axis::kCounter, pc_counter_, old_cnt, new_cnt);

  // Protocol cost: two MEM->CMEM transfers serialize with the MEM; the
  // XOR3 passes and write-backs run in the CMEM.
  counters_.mem_cycles += 2 * params_.transfer_cycles;
  counters_.cmem_cycles +=
      params_.transfer_cycles + params_.xor3_cycles + params_.writeback_cycles;
  ++counters_.critical_ops;
}

void ReferencePimMachine::write_row_protected(std::size_t r,
                                              const util::BitVector& values) {
  detail::require_index(r, n(), "row");
  if (values.size() != n()) {
    throw std::invalid_argument("PimMachine::write_row_protected: size mismatch");
  }
  const util::BitVector old_line = mem_.contents().row(r);
  mem_.write_row(r, values);
  counters_.mem_cycles = mem_.cycles();
  update_check_bits_for_line(false, r, old_line, values);
}

void ReferencePimMachine::magic_nor_rows_protected(
    std::span<const std::size_t> in_cols, std::size_t out_col,
    std::span<const std::size_t> rows) {
  detail::require_indices(in_cols, n(), "input column");
  detail::require_index(out_col, n(), "output column");
  detail::require_distinct(rows, n(), "row lane");
  const util::BitVector old_line = mem_.contents().column(out_col);
  mem_.magic_nor(xbar::Orientation::kRow, in_cols, out_col, rows);
  const util::BitVector new_line = mem_.contents().column(out_col);
  counters_.mem_cycles = mem_.cycles();
  update_check_bits_for_line(true, out_col, old_line, new_line);
}

void ReferencePimMachine::magic_nor_cols_protected(
    std::span<const std::size_t> in_rows, std::size_t out_row,
    std::span<const std::size_t> cols) {
  detail::require_indices(in_rows, n(), "input row");
  detail::require_index(out_row, n(), "output row");
  detail::require_distinct(cols, n(), "column lane");
  const util::BitVector old_line = mem_.contents().row(out_row);
  mem_.magic_nor(xbar::Orientation::kColumn, in_rows, out_row, cols);
  const util::BitVector new_line = mem_.contents().row(out_row);
  counters_.mem_cycles = mem_.cycles();
  update_check_bits_for_line(false, out_row, old_line, new_line);
}

void ReferencePimMachine::magic_init_rows_protected(
    std::span<const std::size_t> cols) {
  detail::require_distinct(cols, n(), "init column");
  std::vector<util::BitVector> old_lines;
  old_lines.reserve(cols.size());
  for (const std::size_t c : cols) old_lines.push_back(mem_.contents().column(c));
  mem_.magic_init(xbar::Orientation::kRow, cols);
  counters_.mem_cycles = mem_.cycles();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    update_check_bits_for_line(true, cols[i], old_lines[i],
                               mem_.contents().column(cols[i]));
  }
}

void ReferencePimMachine::magic_init_cols_protected(
    std::span<const std::size_t> rows) {
  detail::require_distinct(rows, n(), "init row");
  std::vector<util::BitVector> old_lines;
  old_lines.reserve(rows.size());
  for (const std::size_t r : rows) old_lines.push_back(mem_.contents().row(r));
  mem_.magic_init(xbar::Orientation::kColumn, rows);
  counters_.mem_cycles = mem_.cycles();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    update_check_bits_for_line(false, rows[i], old_lines[i],
                               mem_.contents().row(rows[i]));
  }
}

void ReferencePimMachine::run_rows_protected(std::span<const xbar::RowOp> ops) {
  xbar::check_row_program(ops, {}, n(), n());
  std::vector<std::size_t> lines;
  for (const xbar::RowOp& op : ops) {
    lines.assign(op.lines.begin(), op.lines.end());
    if (op.kind == xbar::RowOp::Kind::kInit) {
      magic_init_rows_protected(lines);
    } else {
      magic_nor_rows_protected(lines, op.out);
    }
  }
}

void ReferencePimMachine::run_rows_protected(std::span<const xbar::RowOp> ops,
                                             const xbar::RowIo& io) {
  xbar::check_row_program(ops, io, n(), n());
  for (std::size_t r = 0; r < n(); ++r) {
    util::BitVector image = mem_.contents().row(r);
    for (std::size_t i = 0; i < io.input_cols.size(); ++i) {
      image.set(io.input_cols[i], io.inputs->get(r, i));
    }
    for (const std::uint32_t c : io.one_cols) image.set(c, true);
    for (const std::uint32_t c : io.zero_cols) image.set(c, false);
    write_row_protected(r, image);
  }
  run_rows_protected(ops);
  for (std::size_t r = 0; r < n(); ++r) {
    for (std::size_t j = 0; j < io.output_cols.size(); ++j) {
      io.outputs->set(r, j, mem_.contents().get(r, io.output_cols[j]));
    }
  }
}

void ReferencePimMachine::repair_block(ecc::BlockIndex block,
                                       const ecc::DecodeResult& result) {
  switch (result.status) {
    case ecc::DecodeStatus::kCorrectedData: {
      const ecc::Cell cell = *result.data_error;
      mem_.contents_mutable().flip(block.block_row * m() + cell.r,
                                   block.block_col * m() + cell.c);
      break;
    }
    case ecc::DecodeStatus::kCorrectedCheck: {
      const ecc::CheckBitLocation loc = *result.check_error;
      cmem_.flip(loc.on_leading_axis ? Axis::kLeading : Axis::kCounter, loc.index,
                 block);
      break;
    }
    case ecc::DecodeStatus::kClean:
    case ecc::DecodeStatus::kDetectedUncorrectable:
      break;
  }
}

CheckReport ReferencePimMachine::check_block_band(bool row_band, std::size_t band) {
  if (band >= params_.blocks_per_side()) {
    throw std::out_of_range("PimMachine: block band out of range");
  }
  CheckReport report;
  std::vector<ecc::Syndrome> syndromes;
  std::vector<ecc::BlockIndex> blocks;
  for (std::size_t j = 0; j < params_.blocks_per_side(); ++j) {
    const ecc::BlockIndex block =
        row_band ? ecc::BlockIndex{band, j} : ecc::BlockIndex{j, band};
    const ecc::CheckBits stored = cmem_.gather_block(block);
    syndromes.push_back(codec_.compute_syndrome(
        mem_.contents(), block.block_row * m(), block.block_col * m(), stored));
    blocks.push_back(block);
  }
  const util::BitVector flags = checker_.nonzero_flags(syndromes);
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    ++report.blocks_checked;
    if (!flags.get(j)) continue;
    const ecc::DecodeResult verdict = codec_.classify(syndromes[j]);
    repair_block(blocks[j], verdict);
    switch (verdict.status) {
      case ecc::DecodeStatus::kCorrectedData: ++report.corrected_data; break;
      case ecc::DecodeStatus::kCorrectedCheck: ++report.corrected_check; break;
      case ecc::DecodeStatus::kDetectedUncorrectable: ++report.uncorrectable; break;
      case ecc::DecodeStatus::kClean: break;
    }
  }
  // Cost model: m MEM copy cycles; the XOR3 fold tree, syndrome compare and
  // flag evaluation run in the CMEM off the MEM's critical path.
  counters_.mem_cycles += m();
  counters_.cmem_cycles += xor3_fold_levels(m() + 1) * params_.xor3_cycles + 2 + 1;
  ++counters_.checks;
  return report;
}

CheckReport ReferencePimMachine::check_block_row(std::size_t row) {
  detail::require_index(row, n(), "row");
  return check_block_band(true, row / m());
}

CheckReport ReferencePimMachine::check_block_col(std::size_t col) {
  detail::require_index(col, n(), "column");
  return check_block_band(false, col / m());
}

CheckReport ReferencePimMachine::scrub() {
  CheckReport total;
  for (std::size_t band = 0; band < params_.blocks_per_side(); ++band) {
    const CheckReport r = check_block_band(true, band);
    total.blocks_checked += r.blocks_checked;
    total.corrected_data += r.corrected_data;
    total.corrected_check += r.corrected_check;
    total.uncorrectable += r.uncorrectable;
  }
  ++counters_.scrubs;
  return total;
}

bool ReferencePimMachine::ecc_consistent() const {
  for (std::size_t br = 0; br < params_.blocks_per_side(); ++br) {
    for (std::size_t bc = 0; bc < params_.blocks_per_side(); ++bc) {
      const ecc::CheckBits fresh =
          codec_.encode(mem_.contents(), br * m(), bc * m());
      if (!(fresh == cmem_.gather_block({br, bc}))) return false;
    }
  }
  return true;
}

void ReferencePimMachine::inject_data_error(std::size_t r, std::size_t c) {
  detail::require_index(r, n(), "row");
  detail::require_index(c, n(), "column");
  mem_.contents_mutable().flip(r, c);
}

void ReferencePimMachine::inject_check_error(Axis axis, std::size_t diagonal,
                                             ecc::BlockIndex block) {
  detail::require_index(diagonal, m(), "diagonal");
  cmem_.flip(axis, diagonal, block);
}

}  // namespace pimecc::arch
