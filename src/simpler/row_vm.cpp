#include "simpler/row_vm.hpp"

#include <stdexcept>
#include <vector>

namespace pimecc::simpler {

namespace {

void require_fits(const MappedProgram& program, const xbar::Crossbar& xbar) {
  if (xbar.cols() < program.row_width) {
    throw std::invalid_argument("row_vm: crossbar narrower than the mapped row");
  }
}

std::uint64_t execute_ops(const MappedProgram& program, xbar::Crossbar& xbar,
                          std::size_t row) {
  const std::size_t lanes[1] = {row};
  std::uint64_t violations = 0;
  std::vector<std::size_t> lines;
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kInit) {
      lines.assign(op.init_cells.begin(), op.init_cells.end());
      xbar.magic_init(xbar::Orientation::kRow, lines, lanes);
    } else {
      lines.assign(op.in_cells.begin(), op.in_cells.end());
      const xbar::OpResult r =
          xbar.magic_nor(xbar::Orientation::kRow, lines, op.cell, lanes);
      violations += r.violations;
    }
  }
  return violations;
}

}  // namespace

std::vector<xbar::RowOp> row_ops(const MappedProgram& program) {
  std::vector<xbar::RowOp> ops;
  ops.reserve(program.ops.size());
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kInit) {
      ops.push_back({xbar::RowOp::Kind::kInit, 0, op.init_cells});
    } else {
      ops.push_back({xbar::RowOp::Kind::kNor, op.cell, op.in_cells});
    }
  }
  return ops;
}

xbar::RowIo row_io(const MappedProgram& program, const util::BitMatrix& inputs,
                   util::BitMatrix& outputs) {
  return {program.input_cells, &inputs,  program.one_cells,
          program.zero_cells,  program.output_cells, &outputs};
}

void require_same_inputs(const Netlist& netlist, const MappedProgram& program) {
  if (netlist.num_inputs() != program.input_cells.size()) {
    throw std::invalid_argument(
        "row_vm: the netlist's inputs do not match the program's");
  }
}

RowRunResult run_single_row(const Netlist& netlist, const MappedProgram& program,
                            xbar::Crossbar& xbar, std::size_t row,
                            const util::BitVector& inputs) {
  require_fits(program, xbar);
  require_same_inputs(netlist, program);
  if (inputs.size() != program.input_cells.size()) {
    throw std::invalid_argument("run_single_row: wrong number of inputs");
  }
  const std::uint64_t start_cycles = xbar.cycles();
  for (std::size_t i = 0; i < program.input_cells.size(); ++i) {
    xbar.poke(row, program.input_cells[i], inputs.get(i));
  }
  for (const CellIndex cell : program.one_cells) xbar.poke(row, cell, true);
  for (const CellIndex cell : program.zero_cells) xbar.poke(row, cell, false);

  RowRunResult result;
  result.violations = execute_ops(program, xbar, row);
  result.outputs.resize(program.output_cells.size());
  for (std::size_t i = 0; i < program.output_cells.size(); ++i) {
    result.outputs.set(i, xbar.peek(row, program.output_cells[i]));
  }
  result.cycles = xbar.cycles() - start_cycles;
  return result;
}

SimdRunResult run_simd(const Netlist& netlist, const MappedProgram& program,
                       xbar::Crossbar& xbar, const util::BitMatrix& inputs) {
  require_fits(program, xbar);
  require_same_inputs(netlist, program);
  if (inputs.rows() != xbar.rows() ||
      inputs.cols() != program.input_cells.size()) {
    throw std::invalid_argument("run_simd: inputs must be rows x num_inputs");
  }
  const std::uint64_t start_cycles = xbar.cycles();
  SimdRunResult result;
  result.outputs = util::BitMatrix(xbar.rows(), program.output_cells.size());
  result.violations =
      xbar.run_rows(row_ops(program), {}, row_io(program, inputs, result.outputs));
  result.cycles = xbar.cycles() - start_cycles;
  return result;
}

}  // namespace pimecc::simpler
