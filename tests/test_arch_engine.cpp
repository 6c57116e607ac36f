// End-to-end differential machine tests: the word-parallel protected
// machine (PimMachine, diagword differential check updates, ArrayCode band
// walks) pinned to the retained bit-serial composition
// (ReferencePimMachine, shifter-bank + XOR3-microprogram datapath) across
// randomized protected-op programs with mid-run fault injection, full
// ProtectedVm circuit runs from bench_circuits, metamorphic consistency
// checks, cycle-count pinning, and the arch layer's validate-before-mutate
// regressions.  Tiny configurations double as the `smoke;arch` gate
// (ArchEngineSmoke suite).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "arch/pim_machine.hpp"
#include "arch/scheduler.hpp"
#include "bench_circuits/circuits.hpp"
#include "oracle/pc_controller.hpp"
#include "oracle/reference_pim_machine.hpp"
#include "simpler/mapper.hpp"
#include "simpler/protected_vm.hpp"
#include "util/rng.hpp"

namespace pimecc {
namespace {

using arch::ArchParams;
using arch::Axis;
using arch::CheckReport;
using arch::PimMachine;
using arch::ReferencePimMachine;

ArchParams make_params(std::size_t n, std::size_t m) {
  ArchParams p;
  p.n = n;
  p.m = m;
  return p;
}

util::BitMatrix random_matrix(std::size_t n, util::Rng& rng) {
  return util::random_bit_matrix(n, n, rng);
}

util::BitVector random_vector(std::size_t n, util::Rng& rng) {
  util::BitVector v(n);
  util::fill_random(v, rng);
  return v;
}

/// The twin machines every differential test drives in lockstep.
struct MachinePair {
  PimMachine fast;
  ReferencePimMachine ref;

  explicit MachinePair(const ArchParams& params) : fast(params), ref(params) {}

  void load(const util::BitMatrix& image) {
    fast.load(image);
    ref.load(image);
  }
};

::testing::AssertionResult machines_agree(const MachinePair& pair) {
  if (!(pair.fast.data() == pair.ref.data())) {
    return ::testing::AssertionFailure() << "MEM contents diverge";
  }
  if (!pair.ref.check_memory().matches(pair.fast.check_code())) {
    return ::testing::AssertionFailure() << "check-bit state diverges";
  }
  const arch::MachineCounters& f = pair.fast.counters();
  const arch::MachineCounters& r = pair.ref.counters();
  if (!(f == r)) {
    return ::testing::AssertionFailure()
           << "counters diverge: mem " << f.mem_cycles << "/" << r.mem_cycles
           << " cmem " << f.cmem_cycles << "/" << r.cmem_cycles << " critical "
           << f.critical_ops << "/" << r.critical_ops << " checks " << f.checks
           << "/" << r.checks << " scrubs " << f.scrubs << "/" << r.scrubs;
  }
  return ::testing::AssertionSuccess();
}

/// A random subset of [0, n) (non-empty, distinct, ascending) -- explicit
/// SIMD lane lists for the protected NOR entry points.
std::vector<std::size_t> random_lanes(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> lanes;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) lanes.push_back(i);
  }
  if (lanes.empty()) lanes.push_back(rng.uniform_below(n));
  return lanes;
}

/// Drives a randomized sequence of protected operations, controller writes,
/// checks, scrubs, and mid-run fault injections through both machines,
/// asserting full lockstep (contents, check state, counters, reports) after
/// every public operation.
void run_differential_program(std::size_t n, std::size_t m, std::uint64_t seed,
                              int ops) {
  const ArchParams params = make_params(n, m);
  MachinePair pair(params);
  util::Rng rng(seed);
  pair.load(random_matrix(n, rng));
  ASSERT_TRUE(machines_agree(pair));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(10);
    switch (kind) {
      case 0:
      case 1: {  // row-parallel init + NOR, sometimes on explicit lanes
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        std::size_t in2 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        if (in2 == out) in2 = (in2 + 2) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1, in2};
        pair.fast.magic_init_rows_protected(outs);
        pair.ref.magic_init_rows_protected(outs);
        if (rng.bernoulli(0.3)) {
          const std::vector<std::size_t> lanes = random_lanes(n, rng);
          pair.fast.magic_nor_rows_protected(ins, out, lanes);
          pair.ref.magic_nor_rows_protected(ins, out, lanes);
        } else {
          pair.fast.magic_nor_rows_protected(ins, out);
          pair.ref.magic_nor_rows_protected(ins, out);
        }
        break;
      }
      case 2:
      case 3: {  // column-parallel init + NOR
        const std::size_t out = rng.uniform_below(n);
        std::size_t in1 = rng.uniform_below(n);
        if (in1 == out) in1 = (in1 + 1) % n;
        const std::vector<std::size_t> outs{out};
        const std::vector<std::size_t> ins{in1};
        pair.fast.magic_init_cols_protected(outs);
        pair.ref.magic_init_cols_protected(outs);
        if (rng.bernoulli(0.3)) {
          const std::vector<std::size_t> lanes = random_lanes(n, rng);
          pair.fast.magic_nor_cols_protected(ins, out, lanes);
          pair.ref.magic_nor_cols_protected(ins, out, lanes);
        } else {
          pair.fast.magic_nor_cols_protected(ins, out);
          pair.ref.magic_nor_cols_protected(ins, out);
        }
        break;
      }
      case 4: {  // controller row write
        const std::size_t r = rng.uniform_below(n);
        const util::BitVector values = random_vector(n, rng);
        pair.fast.write_row_protected(r, values);
        pair.ref.write_row_protected(r, values);
        break;
      }
      case 5: {  // soft data error; sometimes checked right away
        const std::size_t r = rng.uniform_below(n);
        const std::size_t c = rng.uniform_below(n);
        pair.fast.inject_data_error(r, c);
        pair.ref.inject_data_error(r, c);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_row(r);
          const CheckReport rr = pair.ref.check_block_row(r);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 6: {  // soft check-bit error
        const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
        const std::size_t diag = rng.uniform_below(m);
        const ecc::BlockIndex block{rng.uniform_below(n / m),
                                    rng.uniform_below(n / m)};
        pair.fast.inject_check_error(axis, diag, block);
        pair.ref.inject_check_error(axis, diag, block);
        if (rng.bernoulli(0.5)) {
          const CheckReport fr = pair.fast.check_block_col(block.block_col * m);
          const CheckReport rr = pair.ref.check_block_col(block.block_col * m);
          EXPECT_EQ(fr, rr) << "op " << i;
        }
        break;
      }
      case 7: {  // periodic full scrub
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      case 8: {  // double error in one block -> detected uncorrectable
        const std::size_t br = rng.uniform_below(n / m);
        const std::size_t bc = rng.uniform_below(n / m);
        const std::size_t r1 = br * m;
        const std::size_t c1 = bc * m;
        pair.fast.inject_data_error(r1, c1);
        pair.ref.inject_data_error(r1, c1);
        pair.fast.inject_data_error(r1 + 1, c1 + 1);
        pair.ref.inject_data_error(r1 + 1, c1 + 1);
        const CheckReport fr = pair.fast.scrub();
        const CheckReport rr = pair.ref.scrub();
        EXPECT_EQ(fr, rr) << "op " << i;
        break;
      }
      default: {  // before-use band check of a random line
        const std::size_t line = rng.uniform_below(n);
        if (rng.bernoulli(0.5)) {
          EXPECT_EQ(pair.fast.check_block_row(line), pair.ref.check_block_row(line));
        } else {
          EXPECT_EQ(pair.fast.check_block_col(line), pair.ref.check_block_col(line));
        }
        break;
      }
    }
    ASSERT_TRUE(machines_agree(pair)) << "op " << i << " kind " << kind;
  }
}

// ------------------------------------------------- randomized differential

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M9) {
  run_differential_program(45, 9, 0xA1, 120);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN60M15) {
  // m = 15 (the paper's case study block size); segments straddle the
  // 64-bit word boundary inside every band walk.
  run_differential_program(60, 15, 0xB2, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN66M3) {
  // Many small blocks; lines span two backing words.
  run_differential_program(66, 3, 0xC3, 100);
}

TEST(ArchEngineDifferential, RandomProgramsAgreeN45M5) {
  run_differential_program(45, 5, 0xD4, 100);
}

// ----------------------------------------------- ProtectedVm end to end

/// Maps `netlist` onto the smallest row width from an m-multiple ladder.
simpler::MappedProgram map_with_ladder(const simpler::Netlist& netlist,
                                       std::size_t m, std::size_t& n_out) {
  for (std::size_t cand = 7 * m; cand <= 35 * m; cand += 7 * m) {
    simpler::MapperOptions options;
    options.row_width = cand;
    try {
      simpler::MappedProgram program = simpler::map_to_row(netlist, options);
      n_out = cand;
      return program;
    } catch (const std::runtime_error&) {
    }
  }
  throw std::runtime_error("circuit does not fit the test ladder");
}

TEST(ArchEngineDifferential, ProtectedVmCircuitRunsAgree) {
  for (const char* name : {"ctrl", "int2float"}) {
    SCOPED_TRACE(name);
    const circuits::CircuitSpec spec = circuits::build_circuit(name);
    std::size_t n = 0;
    const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
    const ArchParams params = make_params(n, 9);
    MachinePair pair(params);
    util::Rng rng(0xE5);
    pair.load(random_matrix(n, rng));

    util::BitMatrix inputs(n, spec.netlist.num_inputs());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < inputs.cols(); ++i) {
        inputs.set(r, i, rng.bernoulli(0.5));
      }
    }
    const simpler::ProtectedRunResult fast_result = simpler::run_program_protected(
        pair.fast, spec.netlist, program, inputs);
    const simpler::ProtectedRunResult ref_result = simpler::run_program_protected(
        pair.ref, spec.netlist, program, inputs);

    EXPECT_EQ(fast_result.outputs, ref_result.outputs);
    EXPECT_EQ(fast_result.input_check_corrections, ref_result.input_check_corrections);
    EXPECT_TRUE(fast_result.ecc_consistent_after);
    EXPECT_TRUE(ref_result.ecc_consistent_after);
    EXPECT_TRUE(machines_agree(pair));
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
          << "row " << r;
    }
  }
}

TEST(ArchEngineDifferential, ProtectedVmRepairsPreRunFaultIdentically) {
  const circuits::CircuitSpec spec = circuits::build_circuit("ctrl");
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, 9, n);
  MachinePair pair(make_params(n, 9));
  util::Rng rng(0xF6);
  pair.load(random_matrix(n, rng));

  // A soft error lands on an input cell before the run; the VM's before-use
  // check must repair it on both machines and the computation proceed.
  pair.fast.inject_data_error(3, program.input_cells[0]);
  pair.ref.inject_data_error(3, program.input_cells[0]);

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);
  EXPECT_EQ(fast_result.input_check_corrections, 1u);
  EXPECT_EQ(ref_result.input_check_corrections, 1u);
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  EXPECT_TRUE(machines_agree(pair));
}

// ---------------------------------------------------- cycle-count pinning

/// Table 1 guard: a full ProtectedVm run of a bench_circuits netlist must
/// cost the exact same cycle counters on the fast and reference machines --
/// any drift in either engine's protocol accounting fails the pin.
class CyclePinningTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CyclePinningTest, ProtectedVmCyclesAgreeExactly) {
  const circuits::CircuitSpec spec = circuits::build_circuit(GetParam());
  const std::size_t m = 15;
  std::size_t n = 0;
  const simpler::MappedProgram program = map_with_ladder(spec.netlist, m, n);
  MachinePair pair(make_params(n, m));
  util::Rng rng(0x715);
  pair.load(random_matrix(n, rng));

  util::BitMatrix inputs(n, spec.netlist.num_inputs());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < inputs.cols(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const simpler::ProtectedRunResult fast_result =
      simpler::run_program_protected(pair.fast, spec.netlist, program, inputs);
  const simpler::ProtectedRunResult ref_result =
      simpler::run_program_protected(pair.ref, spec.netlist, program, inputs);

  const arch::MachineCounters& f = pair.fast.counters();
  EXPECT_EQ(f, pair.ref.counters());
  // The run must have actually exercised the protocol: one critical op per
  // protected row load, init cycle, and gate.
  EXPECT_GE(f.critical_ops, n + program.ops.size());
  EXPECT_EQ(f.checks, n / m);  // the before-use check of every band
  EXPECT_EQ(fast_result.outputs, ref_result.outputs);
  for (std::size_t r = 0; r < n; ++r) {
    ASSERT_EQ(fast_result.outputs.row(r), spec.reference(inputs.row(r)))
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(BenchCircuits, CyclePinningTest,
                         ::testing::Values("ctrl", "cavlc", "int2float", "dec"));

// ------------------------------------------------------------ metamorphic

/// After every public operation: the ECC invariant holds, and a forced
/// single-bit flip anywhere (data or check) is detected and repaired.
void run_metamorphic_program(std::size_t n, std::size_t m, std::uint64_t seed,
                             int ops) {
  PimMachine machine(make_params(n, m));
  util::Rng rng(seed);
  machine.load(random_matrix(n, rng));

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.uniform_below(3);
    const std::size_t out = rng.uniform_below(n);
    std::size_t in1 = rng.uniform_below(n);
    if (in1 == out) in1 = (in1 + 1) % n;
    const std::vector<std::size_t> outs{out};
    const std::vector<std::size_t> ins{in1};
    if (kind == 0) {
      machine.magic_init_rows_protected(outs);
      machine.magic_nor_rows_protected(ins, out);
    } else if (kind == 1) {
      machine.magic_init_cols_protected(outs);
      machine.magic_nor_cols_protected(ins, out);
    } else {
      machine.write_row_protected(out, random_vector(n, rng));
    }
    ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;

    if (rng.bernoulli(0.5)) {
      // Forced data flip anywhere: detected, located, repaired.
      const std::size_t r = rng.uniform_below(n);
      const std::size_t c = rng.uniform_below(n);
      const util::BitMatrix snapshot = machine.data();
      machine.inject_data_error(r, c);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_row(r);
      EXPECT_EQ(report.corrected_data, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
      EXPECT_EQ(machine.data(), snapshot);
    } else {
      // Forced check-bit flip: repaired in the check store.
      const Axis axis = rng.bernoulli(0.5) ? Axis::kLeading : Axis::kCounter;
      const std::size_t diag = rng.uniform_below(m);
      const ecc::BlockIndex block{rng.uniform_below(n / m),
                                  rng.uniform_below(n / m)};
      machine.inject_check_error(axis, diag, block);
      ASSERT_FALSE(machine.ecc_consistent());
      const CheckReport report = machine.check_block_col(block.block_col * m);
      EXPECT_EQ(report.corrected_check, 1u) << "op " << i;
      ASSERT_TRUE(machine.ecc_consistent()) << "op " << i;
    }
  }
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN45M9) {
  run_metamorphic_program(45, 9, 0x3117, 60);
}

TEST(ArchEngineMetamorphic, ConsistencyAndSingleFlipRepairN60M15) {
  run_metamorphic_program(60, 15, 0x3118, 50);
}

// ------------------------------------------------ validate-before-mutate

/// Every rejecting entry point must leave the machine -- contents, check
/// state, cycle counters -- exactly as it was (the PR 2/3 convention
/// applied to the arch layer).  Template: the contract is part of the
/// shared public API of both machines.
template <typename Machine>
void expect_rejects_without_mutating(Machine& machine) {
  const std::size_t n = machine.n();
  const util::BitMatrix data_before = machine.data();
  const arch::MachineCounters counters_before = machine.counters();

  EXPECT_THROW(machine.load(util::BitMatrix(n, n - 1)), std::invalid_argument);
  EXPECT_THROW(machine.write_row_protected(n, util::BitVector(n)),
               std::out_of_range);
  EXPECT_THROW(machine.write_row_protected(0, util::BitVector(n - 1)),
               std::invalid_argument);

  const std::vector<std::size_t> bad_line{n};
  const std::vector<std::size_t> ins{1, 2};
  const std::vector<std::size_t> dup{3, 3};
  EXPECT_THROW(machine.magic_nor_rows_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, n), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, 5, dup),
               std::invalid_argument);
  EXPECT_THROW(machine.magic_nor_rows_protected(ins, 5, bad_line),
               std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(bad_line, 5), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(ins, n), std::out_of_range);
  EXPECT_THROW(machine.magic_nor_cols_protected(ins, 5, dup),
               std::invalid_argument);
  // Duplicate init lines: before this engine, the second update cancelled
  // the first (both deltas were computed against the same pre-init
  // snapshot), silently corrupting the ECC; now the batch is rejected
  // up front.
  EXPECT_THROW(machine.magic_init_rows_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_rows_protected(bad_line), std::out_of_range);
  EXPECT_THROW(machine.magic_init_cols_protected(dup), std::invalid_argument);
  EXPECT_THROW(machine.magic_init_cols_protected(bad_line), std::out_of_range);

  EXPECT_THROW((void)machine.check_block_row(n), std::out_of_range);
  EXPECT_THROW((void)machine.check_block_col(n), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(n, 0), std::out_of_range);
  EXPECT_THROW(machine.inject_data_error(0, n), std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kLeading, machine.m(), {0, 0}),
               std::out_of_range);
  EXPECT_THROW(machine.inject_check_error(Axis::kCounter, 0, {n, 0}),
               std::out_of_range);

  EXPECT_EQ(machine.data(), data_before);
  EXPECT_EQ(machine.counters(), counters_before);
  EXPECT_TRUE(machine.ecc_consistent());
}

TEST(ArchValidation, FastMachineRejectsBeforeMutating) {
  PimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A11);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

TEST(ArchValidation, ReferenceMachineRejectsBeforeMutating) {
  ReferencePimMachine machine(make_params(45, 9));
  util::Rng rng(0x7A12);
  machine.load(random_matrix(45, rng));
  expect_rejects_without_mutating(machine);
}

// --------------------------------------------------------- scheduler engine

TEST(SchedulerEngine, CalendarSkipChainMatchesNaiveLinearProbe) {
  arch::CalendarResource cal;
  std::set<std::uint64_t> naive;
  util::Rng rng(17);
  // Dense earliest-times force long occupied runs, exercising the skip
  // chain and its path compression.
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t earliest = rng.uniform_below(400);
    std::uint64_t expected = earliest;
    while (naive.contains(expected)) ++expected;
    naive.insert(expected);
    ASSERT_EQ(cal.reserve(earliest), expected) << "reservation " << i;
  }
}

TEST(SchedulerEngine, ConstructorValidatesParamsBeforeAnyState) {
  ArchParams p = make_params(45, 9);
  p.num_pcs = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
  p = make_params(45, 9);
  p.xor3_cycles = 0;
  EXPECT_THROW(arch::ProtocolScheduler{p}, std::invalid_argument);
}

// ------------------------------------------------- PC controller batching

TEST(PcControllerBatch, QueuedUpdatesDrainBackToBack) {
  const std::size_t lanes = 48;
  const std::size_t updates = 5;
  util::Rng rng(0xBA7C);
  arch::PcController fsm(lanes);
  std::vector<util::BitVector> old_lines, checks, new_lines;
  for (std::size_t u = 0; u < updates; ++u) {
    old_lines.push_back(random_vector(lanes, rng));
    checks.push_back(random_vector(lanes, rng));
    new_lines.push_back(random_vector(lanes, rng));
    fsm.enqueue(old_lines.back(), checks.back(), new_lines.back());
  }
  EXPECT_TRUE(fsm.busy());
  EXPECT_EQ(fsm.pending(), updates - 1);  // first update armed immediately
  const arch::PcController::BatchResult batch = fsm.run_batch_to_completion();
  EXPECT_EQ(batch.cycles, 13u * updates);  // no idle cycles between updates
  ASSERT_EQ(batch.updated_checks.size(), updates);
  for (std::size_t u = 0; u < updates; ++u) {
    EXPECT_EQ(batch.updated_checks[u], old_lines[u] ^ new_lines[u] ^ checks[u])
        << "update " << u;
  }
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);
}

TEST(PcControllerBatch, BatchMatchesSerialRuns) {
  const std::size_t lanes = 33;
  util::Rng rng(0xBA7D);
  std::vector<util::BitVector> old_lines, checks, new_lines;
  for (std::size_t u = 0; u < 4; ++u) {
    old_lines.push_back(random_vector(lanes, rng));
    checks.push_back(random_vector(lanes, rng));
    new_lines.push_back(random_vector(lanes, rng));
  }
  arch::PcController serial(lanes);
  std::vector<util::BitVector> serial_results;
  std::uint64_t serial_cycles = 0;
  for (std::size_t u = 0; u < 4; ++u) {
    serial.start(old_lines[u], checks[u], new_lines[u]);
    const arch::PcController::RunResult r = serial.run_to_completion();
    serial_results.push_back(r.updated_check);
    serial_cycles += r.cycles;
  }
  arch::PcController batched(lanes);
  for (std::size_t u = 0; u < 4; ++u) {
    batched.enqueue(old_lines[u], checks[u], new_lines[u]);
  }
  const arch::PcController::BatchResult batch = batched.run_batch_to_completion();
  EXPECT_EQ(batch.updated_checks, serial_results);
  EXPECT_EQ(batch.cycles, serial_cycles);
}

TEST(PcControllerBatch, EnqueueValidatesBeforeTouchingState) {
  arch::PcController fsm(8);
  EXPECT_THROW(fsm.enqueue(util::BitVector(7), util::BitVector(8),
                           util::BitVector(8)),
               std::invalid_argument);
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);

  fsm.enqueue(util::BitVector(8), util::BitVector(8), util::BitVector(8));
  EXPECT_TRUE(fsm.busy());
  EXPECT_THROW(fsm.enqueue(util::BitVector(8), util::BitVector(9),
                           util::BitVector(8)),
               std::invalid_argument);
  EXPECT_EQ(fsm.pending(), 0u);  // the rejected update was not queued

  fsm.enqueue(util::BitVector(8), util::BitVector(8), util::BitVector(8));
  EXPECT_EQ(fsm.pending(), 1u);
  fsm.reset();  // controller abort drops the queue
  EXPECT_FALSE(fsm.busy());
  EXPECT_EQ(fsm.pending(), 0u);
}

// ------------------------------------------------------------- smoke gate

TEST(ArchEngineSmoke, TinyDifferentialProgram) {
  run_differential_program(12, 3, 0x5130, 40);
}

TEST(ArchEngineSmoke, TinyMetamorphicConsistency) {
  run_metamorphic_program(12, 3, 0x5131, 20);
}

}  // namespace
}  // namespace pimecc
