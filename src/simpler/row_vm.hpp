// pimecc -- simpler/row_vm.hpp
//
// Executes a MappedProgram on an actual crossbar with genuine MAGIC
// semantics -- the bridge between the mapper's schedule and the simulated
// hardware.  The op sequence executes in every row simultaneously with
// per-row inputs -- MAGIC's throughput story (paper Figure 1), at the cycle
// count of one row; SIMPLER's single-row execution is the one-row
// crossbar.  The program and its I/O run as one row program
// (xbar::Crossbar::run_rows with the program's RowIo): the tile pass
// writes the inputs and constants, runs the ops and reads the outputs, the
// executor the protected VM shares.
//
// run_simd reads the constant cells from the MappedProgram; the netlist is
// only checked against the program's input count.
#pragma once

#include <cstddef>
#include <vector>

#include "simpler/mapper.hpp"
#include "simpler/netlist.hpp"
#include "util/bitmatrix.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::simpler {

/// The program's ops as one row program for xbar::Crossbar::run_rows
/// (and the protected machines' run_rows_protected).  The ops' line spans
/// point into `program`'s cells.
std::vector<xbar::RowOp> row_ops(const MappedProgram& program);

/// The program's I/O for a row program: `inputs` (rows x num_inputs) into
/// the input cells, the constant cells, and the output cells into
/// `outputs` (rows x num_outputs).  The spans point into `program`.
xbar::RowIo row_io(const MappedProgram& program, const util::BitMatrix& inputs,
                   util::BitMatrix& outputs);

/// Throws std::invalid_argument unless `netlist` has the program's number
/// of inputs.
void require_same_inputs(const Netlist& netlist, const MappedProgram& program);

/// SIMD execution: row r of `inputs` feeds row r of the crossbar; returns
/// one output row per crossbar row.  Cycle count equals the single-row
/// count -- this is the parallelism the ECC mechanism must keep up with.
struct SimdRunResult {
  util::BitMatrix outputs;  ///< rows x num_outputs
  std::uint64_t cycles = 0;
  std::uint64_t violations = 0;
};
SimdRunResult run_simd(const Netlist& netlist, const MappedProgram& program,
                       xbar::Crossbar& xbar, const util::BitMatrix& inputs);

}  // namespace pimecc::simpler
