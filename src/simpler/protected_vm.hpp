// pimecc -- simpler/protected_vm.hpp
//
// Executes a mapped single-row program on the full ECC-protected machine:
// the end-to-end composition of SIMPLER and the paper's architecture.
// Inputs are loaded through the protected controller path, the input
// block-rows are checked before execution (Section IV), every init and
// gate runs the critical-operation protocol, and the function executes in
// SIMD across any number of crossbar rows at a single row's cycle count.
//
// After the before-use check the whole request is one machine call:
// run_rows_protected with the program's I/O (row_io).  On PimMachine that
// is one bit-sliced pass over 64-row tiles -- the input rows transposed
// straight into the input columns, the constants set, the ops run, the
// output columns transposed straight into the result -- and one net
// check-bit fold per band covers the writes and the program; the counters
// are charged as n protected row writes followed by the program.  The one
// template drives any machine with PimMachine's protected interface: the
// product runs it on arch::PimMachine, and the differential tests run it
// on the bit-serial oracle machine (oracle/reference_pim_machine.hpp),
// whose I/O entry is a per-row write_row_protected loop, the per-op
// protocol loop and a per-cell read, to pin contents, check state, and
// cycle counters across the full stack.
//
// The one body writes the outputs into a caller's matrix, reshaped in
// place, so a caller that keeps that matrix between runs (the serving
// path's pooled request buffers) allocates nothing for it; the by-value
// form wraps it.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "arch/pim_machine.hpp"
#include "simpler/mapper.hpp"
#include "simpler/netlist.hpp"
#include "simpler/row_vm.hpp"
#include "util/bitmatrix.hpp"

namespace pimecc::simpler {

/// The checks of one protected (SIMD) program execution.
struct ProtectedRunChecks {
  std::size_t input_check_corrections = 0;  ///< errors repaired before use
  bool ecc_consistent_after = false;
};

/// Outcome of one protected execution, outputs included.
struct ProtectedRunResult : ProtectedRunChecks {
  util::BitMatrix outputs;  ///< one row of PO values per lane
};

/// Runs `program` in every row of `machine` simultaneously with per-row
/// inputs (`inputs` is machine-rows x num_inputs) and writes one row of PO
/// values per lane into `outputs`, reshaped to machine-rows x num_outputs
/// (its earlier shape and contents do not matter).  `ops` is the program
/// as one row program, row_ops(program), from a caller that keeps it (the
/// serving registry caches it beside the mapped program), so the run
/// builds none.  The machine's contents outside the program's cells stay
/// ECC-covered throughout.  Every block band first gets the paper's
/// before-use check, repairing any single soft error that accumulated
/// since the data was written.  Its argument checks throw
/// std::invalid_argument before the machine or `outputs` changes.
template <class Machine>
ProtectedRunChecks run_program_protected(Machine& machine,
                                         const Netlist& netlist,
                                         const MappedProgram& program,
                                         std::span<const xbar::RowOp> ops,
                                         const util::BitMatrix& inputs,
                                         util::BitMatrix& outputs) {
  const std::size_t n = machine.n();
  require_same_inputs(netlist, program);
  if (program.row_width > n) {
    throw std::invalid_argument(
        "run_program_protected: program wider than the machine row");
  }
  if (inputs.rows() != n || inputs.cols() != program.input_cells.size()) {
    throw std::invalid_argument(
        "run_program_protected: inputs must be machine-rows x num-inputs");
  }

  ProtectedRunChecks result;

  // The paper's discipline, applied *before* any protected write touches
  // the array: a soft error overwritten before it is checked would leave a
  // permanently wrong parity (the Section III false-positive race, see
  // bench_paper's false_positive section), so every block band is verified
  // first.
  for (std::size_t band = 0; band < n / machine.m(); ++band) {
    const arch::CheckReport report = machine.check_block_row(band * machine.m());
    result.input_check_corrections += report.corrected_data;
    result.input_check_corrections += report.corrected_check;
  }

  // Inputs and constants through the protected write path, every op under
  // the critical-operation protocol in all rows at once, and the outputs
  // read back: one row program with its I/O.
  outputs.reshape(n, program.output_cells.size());
  machine.run_rows_protected(ops, row_io(program, inputs, outputs));
  result.ecc_consistent_after = machine.ecc_consistent();
  return result;
}

/// run_program_protected with the ops built for this call.
template <class Machine>
ProtectedRunChecks run_program_protected(Machine& machine,
                                         const Netlist& netlist,
                                         const MappedProgram& program,
                                         const util::BitMatrix& inputs,
                                         util::BitMatrix& outputs) {
  return run_program_protected(machine, netlist, program, row_ops(program),
                               inputs, outputs);
}

/// run_program_protected into a fresh outputs matrix.
template <class Machine>
ProtectedRunResult run_program_protected(Machine& machine,
                                         const Netlist& netlist,
                                         const MappedProgram& program,
                                         const util::BitMatrix& inputs) {
  ProtectedRunResult result;
  static_cast<ProtectedRunChecks&>(result) =
      run_program_protected(machine, netlist, program, inputs, result.outputs);
  return result;
}

}  // namespace pimecc::simpler
