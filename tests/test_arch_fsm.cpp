// Tests for the PC controller FSM and the protected program VM -- the
// cycle-level and end-to-end compositions added on top of the base
// architecture model.
#include <gtest/gtest.h>

#include "arch/pim_machine.hpp"
#include "oracle/pc_controller.hpp"
#include "simpler/logic.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

// ------------------------------------------------------------ PcController

TEST(PcController, WalksTheDocumentedStateSequence) {
  arch::PcController fsm(4);
  EXPECT_EQ(fsm.state(), arch::PcState::kIdle);
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.step(), std::nullopt);  // idle clocks do nothing

  fsm.start(util::BitVector(4), util::BitVector(4), util::BitVector(4));
  EXPECT_TRUE(fsm.busy());
  const arch::PcState expected[] = {
      arch::PcState::kInit, arch::PcState::kLoadOld, arch::PcState::kLoadCheck,
      arch::PcState::kLoadNew, arch::PcState::kNor1, arch::PcState::kNor2,
      arch::PcState::kNor3, arch::PcState::kNor4, arch::PcState::kNor5,
      arch::PcState::kNor6, arch::PcState::kNor7, arch::PcState::kNor8,
      arch::PcState::kWriteBack};
  for (const arch::PcState s : expected) {
    EXPECT_EQ(fsm.state(), s);
    const auto wb = fsm.step();
    EXPECT_EQ(wb.has_value(), s == arch::PcState::kWriteBack);
  }
  EXPECT_EQ(fsm.state(), arch::PcState::kDone);
  EXPECT_FALSE(fsm.busy());
}

TEST(PcController, ComputesTheContinuousUpdate) {
  const std::size_t lanes = 64;
  util::Rng rng(3);
  util::BitVector old_line(lanes), check(lanes), new_line(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    old_line.set(i, rng.bernoulli(0.5));
    check.set(i, rng.bernoulli(0.5));
    new_line.set(i, rng.bernoulli(0.5));
  }
  arch::PcController fsm(lanes);
  fsm.start(old_line, check, new_line);
  const arch::PcController::RunResult result = fsm.run_to_completion();
  EXPECT_EQ(result.updated_check, old_line ^ new_line ^ check);
  EXPECT_EQ(result.cycles, 13u);  // init + 3 transfers + 8 NORs + write-back
}

TEST(PcController, RejectsStartWhileBusyAndBadLengths) {
  arch::PcController fsm(8);
  EXPECT_THROW(fsm.start(util::BitVector(7), util::BitVector(8),
                         util::BitVector(8)),
               std::invalid_argument);
  fsm.start(util::BitVector(8), util::BitVector(8), util::BitVector(8));
  EXPECT_THROW(fsm.start(util::BitVector(8), util::BitVector(8),
                         util::BitVector(8)),
               std::logic_error);
  fsm.reset();
  EXPECT_FALSE(fsm.busy());
  EXPECT_THROW(fsm.run_to_completion(), std::logic_error);
}

TEST(PcController, StateNamesAreHumanReadable) {
  EXPECT_STREQ(to_string(arch::PcState::kLoadCheck), "load-check");
  EXPECT_STREQ(to_string(arch::PcState::kNor8), "nor8");
}

// ------------------------------------------------------------ protected VM

simpler::Netlist build_add4() {
  simpler::Netlist nl("add4");
  simpler::LogicBuilder b(nl);
  const simpler::Bus x = b.input_bus(4);
  const simpler::Bus y = b.input_bus(4);
  const simpler::AddResult sum = b.ripple_add(x, y, b.constant(false));
  b.output_bus(sum.sum);
  b.output(sum.carry_out);
  return nl;
}

TEST(ProtectedVm, SimdExecutionMatchesNetlistPerRow) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));

  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  util::Rng rng(5);
  util::BitMatrix inputs(45, 8);
  for (std::size_t r = 0; r < 45; ++r) {
    for (std::size_t i = 0; i < 8; ++i) inputs.set(r, i, rng.bernoulli(0.5));
  }
  const simpler::ProtectedRunResult result = simpler::run_program_protected(
      machine, nl, program, inputs);
  EXPECT_TRUE(result.ecc_consistent_after);
  for (std::size_t r = 0; r < 45; ++r) {
    EXPECT_EQ(result.outputs.row(r), nl.eval(inputs.row(r))) << "row " << r;
  }
}

TEST(ProtectedVm, PreCheckRepairsInjectedInputError) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));

  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);

  util::BitMatrix inputs(45, 8);
  inputs.set(7, 0, true);  // row 7 computes 1 + 0

  // A soft error lands somewhere in the array before the run.  The VM's
  // pre-check (which runs *before* its protected loads -- otherwise the
  // load would trigger the Section III overwrite-before-check race) must
  // repair it, leaving the computation and the ECC state intact.
  machine.inject_data_error(7, program.input_cells[0]);
  const simpler::ProtectedRunResult result = simpler::run_program_protected(
      machine, nl, program, inputs);
  EXPECT_EQ(result.input_check_corrections, 1u);
  EXPECT_TRUE(result.ecc_consistent_after);
  EXPECT_EQ(result.outputs.row(7), nl.eval(inputs.row(7)));
}

TEST(ProtectedVm, ValidatesShapes) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  machine.load(util::BitMatrix(45, 45));
  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);
  EXPECT_THROW(simpler::run_program_protected(machine, nl, program,
                                              util::BitMatrix(45, 7)),
               std::invalid_argument);
  simpler::MapperOptions wide;
  wide.row_width = 90;
  const simpler::MappedProgram too_wide = simpler::map_to_row(nl, wide);
  EXPECT_THROW(simpler::run_program_protected(machine, nl, too_wide,
                                              util::BitMatrix(45, 8)),
               std::invalid_argument);
}

TEST(ProtectedVm, RejectsAMismatchedNetlistBeforeMutating) {
  arch::ArchParams params;
  params.n = 45;
  params.m = 9;
  arch::PimMachine machine(params);
  util::Rng rng(6);
  machine.load(util::random_bit_matrix(45, 45, rng));
  machine.inject_data_error(4, 4);  // a repair would change the machine
  const simpler::Netlist nl = build_add4();
  simpler::MapperOptions options;
  options.row_width = 45;
  const simpler::MappedProgram program = simpler::map_to_row(nl, options);
  simpler::Netlist other("one-input");
  other.mark_output(other.add_nor({other.add_input()}));
  const arch::PimMachine before = machine;
  EXPECT_THROW(simpler::run_program_protected(machine, other, program,
                                              util::BitMatrix(45, 8)),
               std::invalid_argument);
  EXPECT_EQ(machine.data(), before.data());
  EXPECT_EQ(machine.counters(), before.counters());
  EXPECT_EQ(machine.mem_counters(), before.mem_counters());
}

}  // namespace
}  // namespace pimecc
