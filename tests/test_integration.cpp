// Integration tests: the full pipeline from logic synthesis through
// SIMPLER mapping to execution on the ECC-protected machine, with fault
// injection and repair -- the end-to-end story of the paper.
#include <gtest/gtest.h>

#include "arch/params.hpp"
#include "arch/pim_machine.hpp"
#include "bench_circuits/circuits.hpp"
#include "bench_circuits/ref_util.hpp"
#include "oracle/reference_eval.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/logic.hpp"
#include "simpler/mapper.hpp"
#include "simpler/row_vm.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc {
namespace {

/// Builds an 8+8-bit adder, small enough to execute through the protected
/// machine in reasonable test time.
simpler::Netlist build_add8() {
  simpler::Netlist nl("add8");
  simpler::LogicBuilder b(nl);
  const simpler::Bus x = b.input_bus(8);
  const simpler::Bus y = b.input_bus(8);
  const simpler::AddResult sum = b.ripple_add(x, y, b.constant(false));
  b.output_bus(sum.sum);
  b.output(sum.carry_out);
  return nl;
}

/// Executes a mapped program on an ECC-protected PimMachine (every row
/// computes; row `row`'s outputs are returned): every init and gate goes
/// through the critical-operation protocol.
util::BitVector run_protected(arch::PimMachine& machine,
                              const simpler::MappedProgram& program,
                              std::size_t row) {
  for (const simpler::MappedOp& op : program.ops) {
    if (op.kind == simpler::MappedOp::Kind::kInit) {
      std::vector<std::size_t> cols(op.init_cells.begin(), op.init_cells.end());
      machine.magic_init_rows_protected(cols);
    } else {
      std::vector<std::size_t> ins(op.in_cells.begin(), op.in_cells.end());
      machine.magic_nor_rows_protected(ins, op.cell);
    }
  }
  util::BitVector out(program.output_cells.size());
  for (std::size_t i = 0; i < program.output_cells.size(); ++i) {
    out.set(i, machine.data().get(row, program.output_cells[i]));
  }
  return out;
}

TEST(Integration, ProtectedExecutionComputesCorrectlyAndKeepsEcc) {
  arch::ArchParams params;
  params.n = 60;
  params.m = 15;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(60, 60));

  const simpler::Netlist nl = build_add8();
  simpler::MapperOptions options;
  options.row_width = 60;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  util::Rng rng(11);
  const std::size_t row = 7;
  util::BitVector inputs(16);
  const std::uint64_t xv = 0xA7, yv = 0x5C;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.set(i, (xv >> i) & 1u);
    inputs.set(8 + i, (yv >> i) & 1u);
  }
  // Load the inputs through the protected controller path.
  util::BitVector row_image(60);
  for (std::size_t i = 0; i < 16; ++i) {
    row_image.set(program.input_cells[i], inputs.get(i));
  }
  machine.write_row_protected(row, row_image);
  ASSERT_TRUE(machine.ecc_consistent());

  const util::BitVector outputs =
      run_protected(machine, program, row);
  EXPECT_TRUE(machine.ecc_consistent());
  EXPECT_EQ(outputs, simpler::eval_netlist(nl, inputs));
  EXPECT_EQ(circuits::get_bits(outputs, 0, 9), xv + yv);
}

TEST(Integration, PreExecutionCheckRepairsCorruptedInput) {
  arch::ArchParams params;
  params.n = 60;
  params.m = 15;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(60, 60));

  const simpler::Netlist nl = build_add8();
  simpler::MapperOptions options;
  options.row_width = 60;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  const std::size_t row = 3;
  util::BitVector inputs(16);
  const std::uint64_t xv = 0x3F, yv = 0x41;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.set(i, (xv >> i) & 1u);
    inputs.set(8 + i, (yv >> i) & 1u);
  }
  util::BitVector row_image(60);
  for (std::size_t i = 0; i < 16; ++i) {
    row_image.set(program.input_cells[i], inputs.get(i));
  }
  machine.write_row_protected(row, row_image);

  // A soft error flips input bit 0 before execution...
  machine.inject_data_error(row, program.input_cells[0]);
  // ...without the check the function would compute (xv^1) + yv.  The
  // paper's discipline: check the input block-row first.
  const arch::CheckReport repair = machine.check_block_row(row);
  EXPECT_EQ(repair.corrected_data, 1u);

  const util::BitVector outputs =
      run_protected(machine, program, row);
  EXPECT_EQ(circuits::get_bits(outputs, 0, 9), xv + yv);
  EXPECT_TRUE(machine.ecc_consistent());
}

TEST(Integration, UncheckedCorruptedInputPropagates) {
  // Negative control: without the pre-execution check the error silently
  // corrupts the sum -- demonstrating why checking inputs matters.
  arch::ArchParams params;
  params.n = 60;
  params.m = 15;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(60, 60));

  const simpler::Netlist nl = build_add8();
  simpler::MapperOptions options;
  options.row_width = 60;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  const std::size_t row = 3;
  util::BitVector inputs(16);
  inputs.set(1, true);  // x = 2, y = 0
  util::BitVector row_image(60);
  for (std::size_t i = 0; i < 16; ++i) {
    row_image.set(program.input_cells[i], inputs.get(i));
  }
  machine.write_row_protected(row, row_image);
  machine.inject_data_error(row, program.input_cells[1]);  // x becomes 0

  const util::BitVector outputs =
      run_protected(machine, program, row);
  EXPECT_EQ(circuits::get_bits(outputs, 0, 9), 0u);  // wrong result: 0, not 2
}

TEST(Integration, BenchmarkCircuitsSurviveMappedExecutionWithEcc) {
  // The full Table I pipeline on the two smallest benchmarks: build,
  // map at n=1020, execute on a raw crossbar, and schedule under ECC.
  arch::ArchParams params;  // n = 1020, m = 15
  simpler::MapperOptions options;
  options.row_width = params.n;
  util::Rng rng(21);
  for (const std::string& name : {std::string("ctrl"), std::string("dec")}) {
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    const simpler::MappedProgram program =
        simpler::map_to_row(spec.netlist, options);

    xbar::Crossbar xb(1, params.n);
    util::BitMatrix in(1, spec.netlist.num_inputs());
    for (std::size_t i = 0; i < in.cols(); ++i) in.set(0, i, rng.bernoulli(0.5));
    const simpler::SimdRunResult run =
        simpler::run_simd(spec.netlist, program, xb, in);
    EXPECT_EQ(run.violations, 0u);
    EXPECT_EQ(run.outputs.row(0), spec.reference(in.row(0))) << name;

    const simpler::EccScheduleResult sched = simpler::schedule_with_ecc(
        program, params, simpler::CoveragePolicy::kInputsAndOutputs);
    EXPECT_GT(sched.proposed_cycles, sched.baseline_cycles) << name;
  }
}

TEST(Integration, ScrubbedMachineSurvivesBackgroundErrorsDuringCompute) {
  // Compute + periodic scrub interleaved with sparse injected errors: as
  // long as each block collects at most one error between scrubs, the
  // final state matches a golden unprotected run.
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  util::Rng rng(31);
  util::BitMatrix image(45, 45);
  for (std::size_t r = 0; r < 45; ++r) {
    for (std::size_t c = 0; c < 45; ++c) image.set(r, c, rng.bernoulli(0.5));
  }
  machine.load(image);

  util::BitMatrix golden = image;
  for (int round = 0; round < 10; ++round) {
    // One protected op...
    const std::size_t out = 30 + round;
    const std::size_t ins[2] = {static_cast<std::size_t>(round),
                                static_cast<std::size_t>(round + 1)};
    const std::size_t outs[1] = {out};
    machine.magic_init_rows_protected(outs);
    machine.magic_nor_rows_protected(ins, out);
    for (std::size_t r = 0; r < 45; ++r) {
      golden.set(r, out, !(golden.get(r, ins[0]) || golden.get(r, ins[1])));
    }
    // ...one background soft error far from previous ones...
    machine.inject_data_error((round * 9 + 4) % 45, (round * 17 + 2) % 45);
    // ...and the periodic scrub repairs it.
    const arch::CheckReport report = machine.scrub();
    EXPECT_EQ(report.uncorrectable, 0u) << "round " << round;
    ASSERT_TRUE(machine.ecc_consistent());
  }
  EXPECT_EQ(machine.data(), golden);
}

}  // namespace
}  // namespace pimecc
