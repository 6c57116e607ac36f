// pimecc -- simpler/protected_vm.hpp
//
// Executes a mapped single-row program on the full ECC-protected machine:
// the end-to-end composition of SIMPLER and the paper's architecture.
// Inputs are loaded through the protected controller path, the input
// block-rows are checked before execution (Section IV), every init and
// gate runs the critical-operation protocol, and the function executes in
// SIMD across any number of crossbar rows at a single row's cycle count.
//
// The VM's marshalling is word-parallel: per-row input images are built by
// masked word assignment over the resident row (one precomputed
// input+constant mask, no per-node scans), and outputs are peeled one
// column word-walk per primary output.  The one template drives any machine
// with PimMachine's protected interface: the product runs it on
// arch::PimMachine, and the differential tests run the identical
// protected-operation sequence on the bit-serial oracle machine
// (oracle/reference_pim_machine.hpp) to pin contents, check state, and
// cycle counters across the full stack.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "arch/pim_machine.hpp"
#include "simpler/mapper.hpp"
#include "simpler/netlist.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::simpler {

/// Outcome of one protected (SIMD) program execution.
struct ProtectedRunResult {
  util::BitMatrix outputs;              ///< one row of PO values per lane
  std::size_t input_check_corrections = 0;  ///< errors repaired before use
  bool ecc_consistent_after = false;
};

/// Runs `program` in every row of `machine` simultaneously with per-row
/// inputs (`inputs` is machine-rows x num_inputs).  The machine's contents
/// outside the program's cells stay ECC-covered throughout.
///
/// `check_inputs_first` runs the paper's before-use check on every block
/// band, repairing any single soft error that accumulated since the data
/// was written.
template <class Machine>
ProtectedRunResult run_program_protected(Machine& machine,
                                         const Netlist& netlist,
                                         const MappedProgram& program,
                                         const util::BitMatrix& inputs,
                                         bool check_inputs_first = true) {
  const std::size_t n = machine.n();
  if (program.row_width > n) {
    throw std::invalid_argument(
        "run_program_protected: program wider than the machine row");
  }
  if (inputs.rows() != n || inputs.cols() != program.input_cells.size()) {
    throw std::invalid_argument(
        "run_program_protected: inputs must be machine-rows x num-inputs");
  }

  ProtectedRunResult result;

  // The paper's discipline, applied *before* any protected write touches
  // the array: a soft error overwritten before it is checked would leave a
  // permanently wrong parity (the Section III false-positive race, see
  // bench_paper's false_positive section), so every block band is verified
  // first.
  if (check_inputs_first) {
    for (std::size_t band = 0; band < n / machine.m(); ++band) {
      const arch::CheckReport report =
          machine.check_block_row(band * machine.m());
      result.input_check_corrections += report.corrected_data;
      result.input_check_corrections += report.corrected_check;
    }
  }

  // Load inputs and constants through the protected write path (full row
  // images built from the current contents so unrelated columns survive).
  // The input/constant cell mask and the constant values are fixed across
  // rows (constants sit right after the inputs -- mapper convention), so
  // each row image is one masked word assignment plus one bit scatter of
  // that row's input values.
  util::BitVector fixed_mask(n);
  util::BitVector row_values(n);
  for (const CellIndex cell : program.input_cells) fixed_mask.set(cell, true);
  CellIndex next_fixed = static_cast<CellIndex>(program.input_cells.size());
  for (NodeId id = 0; id < netlist.num_nodes(); ++id) {
    const NodeType t = netlist.node(id).type;
    if (t == NodeType::kConstZero || t == NodeType::kConstOne) {
      fixed_mask.set(next_fixed, true);
      row_values.set(next_fixed, t == NodeType::kConstOne);
      ++next_fixed;
    }
  }
  util::BitVector image(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < program.input_cells.size(); ++i) {
      row_values.set(program.input_cells[i], inputs.get(r, i));
    }
    image = machine.data().row(r);
    image.assign_masked(row_values, fixed_mask);
    machine.write_row_protected(r, image);
  }

  // Execute: every op through the critical-operation protocol, all rows in
  // parallel (empty lane list = SIMD across the full array).
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kInit) {
      std::vector<std::size_t> cols(op.init_cells.begin(), op.init_cells.end());
      machine.magic_init_rows_protected(cols);
    } else {
      std::vector<std::size_t> ins(op.in_cells.begin(), op.in_cells.end());
      machine.magic_nor_rows_protected(ins, op.cell);
    }
  }

  result.outputs = util::BitMatrix(n, program.output_cells.size());
  util::BitVector column(n);
  for (std::size_t i = 0; i < program.output_cells.size(); ++i) {
    machine.data().column_into(program.output_cells[i], column);
    result.outputs.set_column(i, column);
  }
  result.ecc_consistent_after = machine.ecc_consistent();
  return result;
}

}  // namespace pimecc::simpler
