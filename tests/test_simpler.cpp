// Unit + property tests for src/simpler: netlist IR, NOR logic builder,
// the SIMPLER row mapper, the row VM, and the ECC scheduling pass.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/params.hpp"
#include "bench_circuits/circuits.hpp"
#include "simpler/ecc_schedule.hpp"
#include "simpler/logic.hpp"
#include "simpler/mapper.hpp"
#include "simpler/netlist.hpp"
#include "simpler/row_vm.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::simpler {
namespace {

// ------------------------------------------------------------------- netlist

TEST(Netlist, BuildsAndEvaluatesNor) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  const NodeId b = nl.add_input();
  const NodeId g = nl.add_nor({a, b});
  nl.mark_output(g);
  EXPECT_EQ(nl.num_gates(), 1u);
  EXPECT_EQ(nl.num_inputs(), 2u);
  for (int combo = 0; combo < 4; ++combo) {
    util::BitVector in(2);
    in.set(0, combo & 1);
    in.set(1, (combo >> 1) & 1);
    const util::BitVector out = nl.eval(in);
    EXPECT_EQ(out.get(0), !(in.get(0) || in.get(1)));
  }
}

TEST(Netlist, ConstantsEvaluate) {
  Netlist nl("t");
  const NodeId zero = nl.add_const(false);
  const NodeId one = nl.add_const(true);
  const NodeId g = nl.add_nor({zero, one});
  nl.mark_output(g);
  nl.mark_output(zero);
  EXPECT_EQ(nl.eval(util::BitVector(0)).to_string(), "00");
}

TEST(Netlist, ValidatesConstruction) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  EXPECT_THROW(nl.add_nor({}), std::invalid_argument);
  EXPECT_THROW(nl.add_nor({static_cast<NodeId>(5)}), std::invalid_argument);
  nl.mark_output(a);
  nl.mark_output(a);  // a node may drive several output pins
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_THROW(nl.mark_output(99), std::out_of_range);
  EXPECT_THROW((void)nl.eval(util::BitVector(2)), std::invalid_argument);
}

TEST(Netlist, FanoutCountsIncludeOutputPins) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  const NodeId g1 = nl.add_nor({a});
  const NodeId g2 = nl.add_nor({a, g1});
  nl.mark_output(g2);
  const auto fanout = nl.fanout_counts();
  EXPECT_EQ(fanout[a], 2u);
  EXPECT_EQ(fanout[g1], 1u);
  EXPECT_EQ(fanout[g2], 1u);  // the output pin
}

// ------------------------------------------------------------- LogicBuilder

class GateTruthTableTest : public ::testing::TestWithParam<int> {};

TEST_P(GateTruthTableTest, TwoAndThreeInputHelpersMatchSemantics) {
  const int combo = GetParam();
  const bool va = combo & 1, vb = (combo >> 1) & 1, vc = (combo >> 2) & 1;

  Netlist nl("t");
  LogicBuilder b(nl);
  const NodeId a = b.input();
  const NodeId bb = b.input();
  const NodeId c = b.input();
  b.output(b.xor2(a, bb));
  b.output(b.xnor2(a, bb));
  b.output(b.xor3(a, bb, c));
  b.output(b.majority3(a, bb, c));
  b.output(b.mux(a, bb, c));  // a ? c : b
  b.output(b.and2(a, bb));
  b.output(b.or2(a, bb));
  b.output(b.nand2(a, bb));
  b.output(b.nor2(a, bb));

  util::BitVector in(3);
  in.set(0, va);
  in.set(1, vb);
  in.set(2, vc);
  const util::BitVector out = nl.eval(in);
  EXPECT_EQ(out.get(0), va != vb);
  EXPECT_EQ(out.get(1), va == vb);
  EXPECT_EQ(out.get(2), va ^ vb ^ vc);
  EXPECT_EQ(out.get(3), (va && vb) || (va && vc) || (vb && vc));
  EXPECT_EQ(out.get(4), va ? vc : vb);
  EXPECT_EQ(out.get(5), va && vb);
  EXPECT_EQ(out.get(6), va || vb);
  EXPECT_EQ(out.get(7), !(va && vb));
  EXPECT_EQ(out.get(8), !(va || vb));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GateTruthTableTest, ::testing::Range(0, 8));

TEST(LogicBuilder, WideOrAndNorDecomposeCorrectly) {
  Netlist nl("t");
  LogicBuilder b(nl, /*max_fanin=*/4);
  Bus ins = b.input_bus(13);
  b.output(b.or_gate(std::span<const NodeId>(ins)));
  b.output(b.nor_gate(std::span<const NodeId>(ins)));
  b.output(b.and_gate(std::span<const NodeId>(ins)));
  EXPECT_EQ(nl.max_fanin(), 4u);
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    util::BitVector in(13);
    bool any = false, all = true;
    for (std::size_t i = 0; i < 13; ++i) {
      const bool v = rng.bernoulli(0.3);
      in.set(i, v);
      any = any || v;
      all = all && v;
    }
    const util::BitVector out = nl.eval(in);
    EXPECT_EQ(out.get(0), any);
    EXPECT_EQ(out.get(1), !any);
    EXPECT_EQ(out.get(2), all);
  }
}

TEST(LogicBuilder, RippleAddMatchesNativeAddition) {
  Netlist nl("t");
  LogicBuilder b(nl);
  const Bus x = b.input_bus(32);
  const Bus y = b.input_bus(32);
  const AddResult sum = b.ripple_add(x, y, b.constant(false));
  b.output_bus(sum.sum);
  b.output(sum.carry_out);
  util::Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t xv = rng.next() & 0xFFFFFFFFull;
    const std::uint64_t yv = rng.next() & 0xFFFFFFFFull;
    util::BitVector in(64);
    for (std::size_t i = 0; i < 32; ++i) {
      in.set(i, (xv >> i) & 1u);
      in.set(32 + i, (yv >> i) & 1u);
    }
    const util::BitVector out = nl.eval(in);
    const std::uint64_t expect = xv + yv;
    for (std::size_t i = 0; i < 33; ++i) {
      EXPECT_EQ(out.get(i), (expect >> i) & 1u) << "bit " << i;
    }
  }
}

TEST(LogicBuilder, SubCompareEqualAgainstNative) {
  Netlist nl("t");
  LogicBuilder b(nl);
  const Bus x = b.input_bus(16);
  const Bus y = b.input_bus(16);
  const AddResult diff = b.ripple_sub(x, y);
  b.output_bus(diff.sum);
  b.output(diff.carry_out);          // borrow: x < y
  b.output(b.greater_equal(x, y));   // x >= y
  b.output(b.equal(x, y));
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t xv = rng.next() & 0xFFFF;
    const std::uint64_t yv = trial % 5 == 0 ? xv : rng.next() & 0xFFFF;
    util::BitVector in(32);
    for (std::size_t i = 0; i < 16; ++i) {
      in.set(i, (xv >> i) & 1u);
      in.set(16 + i, (yv >> i) & 1u);
    }
    const util::BitVector out = nl.eval(in);
    const std::uint64_t d = (xv - yv) & 0xFFFF;
    for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out.get(i), (d >> i) & 1u);
    EXPECT_EQ(out.get(16), xv < yv);
    EXPECT_EQ(out.get(17), xv >= yv);
    EXPECT_EQ(out.get(18), xv == yv);
  }
}

TEST(LogicBuilder, PopcountMatchesCount) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                                  std::size_t{64}}) {
    Netlist nl("t");
    LogicBuilder b(nl);
    const Bus ins = b.input_bus(width);
    b.output_bus(b.popcount(ins));
    util::Rng rng(width);
    for (int trial = 0; trial < 30; ++trial) {
      util::BitVector in(width);
      for (std::size_t i = 0; i < width; ++i) in.set(i, rng.bernoulli(0.5));
      const util::BitVector out = nl.eval(in);
      std::uint64_t got = 0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out.get(i)) got |= std::uint64_t{1} << i;
      }
      EXPECT_EQ(got, in.count()) << "width " << width;
    }
  }
}

TEST(LogicBuilder, MultiplyMatchesNative) {
  Netlist nl("t");
  LogicBuilder b(nl);
  const Bus x = b.input_bus(8);
  const Bus y = b.input_bus(8);
  b.output_bus(b.multiply(x, y));
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t xv = rng.next() & 0xFF;
    const std::uint64_t yv = rng.next() & 0xFF;
    util::BitVector in(16);
    for (std::size_t i = 0; i < 8; ++i) {
      in.set(i, (xv >> i) & 1u);
      in.set(8 + i, (yv >> i) & 1u);
    }
    const util::BitVector out = nl.eval(in);
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      if (out.get(i)) got |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(got, xv * yv);
  }
}

TEST(LogicBuilder, ConstantBusEncodesValue) {
  Netlist nl("t");
  LogicBuilder b(nl);
  b.output_bus(b.constant_bus(10, 0b1100101));
  const util::BitVector out = nl.eval(util::BitVector(0));
  EXPECT_EQ(out.to_string(), "1010011000");  // LSB-first
}

// -------------------------------------------------------------------- mapper

TEST(Mapper, CellUsageOfLeavesAndGates) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  const NodeId b = nl.add_input();
  const NodeId g1 = nl.add_nor({a, b});  // CU = max(1, 1+1) = 2
  const NodeId g2 = nl.add_nor({g1, a}); // CU = max(2, 1+1) = 2
  nl.mark_output(g2);
  const auto cu = compute_cell_usage(nl);
  EXPECT_EQ(cu[a], 1u);
  EXPECT_EQ(cu[b], 1u);
  EXPECT_EQ(cu[g1], 2u);
  EXPECT_EQ(cu[g2], 2u);
}

/// Random NOR DAG generator for mapper/VM equivalence properties.
Netlist random_netlist(std::uint64_t seed, std::size_t inputs, std::size_t gates,
                       std::size_t outputs) {
  util::Rng rng(seed);
  Netlist nl("rand" + std::to_string(seed));
  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < inputs; ++i) pool.push_back(nl.add_input());
  for (std::size_t g = 0; g < gates; ++g) {
    const std::size_t fanin = 1 + rng.uniform_below(3);
    std::vector<NodeId> ins;
    for (std::size_t i = 0; i < fanin; ++i) {
      ins.push_back(pool[rng.uniform_below(pool.size())]);
    }
    pool.push_back(nl.add_nor(std::span<const NodeId>(ins)));
  }
  for (std::size_t o = 0; o < outputs; ++o) {
    // Prefer late nodes as outputs; avoid duplicates.
    for (std::size_t attempt = 0; attempt < 50; ++attempt) {
      const NodeId candidate =
          pool[pool.size() - 1 - rng.uniform_below(std::min(pool.size(),
                                                            gates / 2 + 1))];
      try {
        nl.mark_output(candidate);
        break;
      } catch (const std::invalid_argument&) {
      }
    }
  }
  return nl;
}

class MapperEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MapperEquivalenceTest, MappedProgramComputesTheNetlist) {
  const Netlist nl = random_netlist(GetParam(), 12, 120, 6);
  MapperOptions options;
  options.row_width = 64;
  const MappedProgram program = map_to_row(nl, options);
  EXPECT_LE(program.peak_cells_used, options.row_width);

  xbar::Crossbar xb(2, options.row_width);
  util::Rng rng(GetParam() * 3 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    util::BitVector in(nl.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in.set(i, rng.bernoulli(0.5));
    const RowRunResult result = run_single_row(nl, program, xb, 1, in);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_EQ(result.outputs, nl.eval(in)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Mapper, BaselineCountsGatesPlusInits) {
  const Netlist nl = random_netlist(99, 8, 60, 4);
  MapperOptions options;
  options.row_width = 40;
  const MappedProgram program = map_to_row(nl, options);
  EXPECT_EQ(program.baseline_cycles(),
            program.gate_cycles + program.init_cycles);
  EXPECT_GE(program.init_cycles, 1u);  // the up-front batch init
  std::size_t gate_ops = 0, init_ops = 0;
  for (const MappedOp& op : program.ops) {
    (op.kind == MappedOp::Kind::kGate ? gate_ops : init_ops)++;
  }
  EXPECT_EQ(gate_ops, program.gate_cycles);
  EXPECT_EQ(init_ops, program.init_cycles);
}

TEST(Mapper, OutputCellsAreNeverRecycled) {
  const Netlist nl = random_netlist(7, 10, 100, 5);
  MapperOptions options;
  options.row_width = 48;
  const MappedProgram program = map_to_row(nl, options);
  std::set<CellIndex> outputs(program.output_cells.begin(),
                              program.output_cells.end());
  // After an output gate writes its cell, no later init may touch it.
  std::set<CellIndex> written_outputs;
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kGate) {
      if (op.writes_output && outputs.count(op.cell)) {
        written_outputs.insert(op.cell);
      }
    } else {
      for (const CellIndex cell : op.init_cells) {
        EXPECT_FALSE(written_outputs.count(cell))
            << "output cell re-initialized";
      }
    }
  }
}

TEST(Mapper, TinyRowThrows) {
  const Netlist nl = random_netlist(8, 10, 100, 5);
  MapperOptions options;
  options.row_width = 12;  // inputs fit, working set cannot
  EXPECT_THROW((void)map_to_row(nl, options), std::runtime_error);
}

TEST(Mapper, RowNarrowerThanInputsThrowsBeforeAnyWrite) {
  // More inputs than row cells: the fit check must fire before any
  // cell-indexed bookkeeping is written (these shapes once overran the
  // heap and took the serve daemon down on a single request line).
  const Netlist tiny = random_netlist(7, 16, 40, 4);
  MapperOptions options;
  options.row_width = 8;
  EXPECT_THROW((void)map_to_row(tiny, options), std::runtime_error);
  for (const auto& [name, width] :
       std::vector<std::pair<std::string, std::size_t>>{{"voter", 60},
                                                        {"max", 240}}) {
    options.row_width = width;
    const Netlist netlist = circuits::build_circuit(name).netlist;
    EXPECT_THROW((void)map_to_row(netlist, options), std::runtime_error)
        << name << " at width " << width;
  }
}

TEST(Mapper, InputRecyclingCanBeDisabled) {
  const Netlist nl = random_netlist(21, 12, 80, 4);
  MapperOptions recycle;
  recycle.row_width = 64;
  MapperOptions pin = recycle;
  pin.allow_input_recycling = false;
  const MappedProgram a = map_to_row(nl, recycle);
  const MappedProgram bprog = map_to_row(nl, pin);
  // Pinned inputs can only increase pressure (more init cycles or equal).
  EXPECT_GE(bprog.baseline_cycles(), a.baseline_cycles());
  for (const MappedOp& op : bprog.ops) {
    if (op.kind == MappedOp::Kind::kInit) {
      EXPECT_TRUE(op.covered_cells.empty());
    }
  }
}

TEST(RowVm, SimdMatchesPerRowEval) {
  const Netlist nl = random_netlist(31, 10, 80, 5);
  MapperOptions options;
  options.row_width = 64;
  const MappedProgram program = map_to_row(nl, options);
  constexpr std::size_t kRows = 16;
  xbar::Crossbar xb(kRows, options.row_width);
  util::Rng rng(32);
  util::BitMatrix inputs(kRows, nl.num_inputs());
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      inputs.set(r, i, rng.bernoulli(0.5));
    }
  }
  const SimdRunResult result = run_simd(nl, program, xb, inputs);
  EXPECT_EQ(result.violations, 0u);
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(result.outputs.row(r), nl.eval(inputs.row(r))) << "row " << r;
  }
}

TEST(RowVm, ConstantCellsComeFromTheProgram) {
  // Constants of both values between two inputs, a constant output and an
  // input output: the mapper records the constant cells right after the
  // inputs, and both VMs write them from there.
  Netlist nl("consts");
  const NodeId a = nl.add_input();
  const NodeId zero = nl.add_const(false);
  const NodeId one = nl.add_const(true);
  const NodeId late = nl.add_input();
  nl.mark_output(nl.add_nor({a, zero, late}));
  nl.mark_output(nl.add_nor({one, a}));
  nl.mark_output(one);
  nl.mark_output(late);
  MapperOptions options;
  options.row_width = 16;
  const MappedProgram program = map_to_row(nl, options);
  EXPECT_EQ(program.input_cells, (std::vector<CellIndex>{0, 1}));
  EXPECT_EQ(program.zero_cells, (std::vector<CellIndex>{2}));
  EXPECT_EQ(program.one_cells, (std::vector<CellIndex>{3}));

  // Every input combination in its own row; the cells start inverted.
  xbar::Crossbar xb(4, options.row_width);
  xb.contents_mutable().fill(true);
  util::BitMatrix inputs(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    inputs.set(r, 0, (r & 1) != 0);
    inputs.set(r, 1, (r & 2) != 0);
  }
  const SimdRunResult simd = run_simd(nl, program, xb, inputs);
  EXPECT_EQ(simd.violations, 0u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(simd.outputs.row(r), nl.eval(inputs.row(r))) << "row " << r;
    xbar::Crossbar single(1, options.row_width);
    single.contents_mutable().fill(r % 2 == 0);
    const RowRunResult one_row =
        run_single_row(nl, program, single, 0, inputs.row(r));
    EXPECT_EQ(one_row.outputs, nl.eval(inputs.row(r))) << "row " << r;
  }
}

TEST(RowVm, RejectsAMismatchedNetlistBeforeMutating) {
  const Netlist nl = random_netlist(33, 6, 40, 4);
  const Netlist other = random_netlist(34, 7, 40, 4);
  MapperOptions options;
  options.row_width = 64;
  const MappedProgram program = map_to_row(nl, options);
  xbar::Crossbar xb(8, options.row_width);
  const xbar::Crossbar before = xb;
  EXPECT_THROW((void)run_simd(other, program, xb, util::BitMatrix(8, 6)),
               std::invalid_argument);
  EXPECT_THROW((void)run_single_row(other, program, xb, 0, util::BitVector(6)),
               std::invalid_argument);
  EXPECT_EQ(xb.contents(), before.contents());
  EXPECT_EQ(xb.counters(), before.counters());
  EXPECT_EQ(xb.row_activation_snapshot(), before.row_activation_snapshot());
}

// -------------------------------------------------------------- ecc_schedule

TEST(EccSchedule, ProposedIsNeverFasterThanBaseline) {
  const Netlist nl = random_netlist(41, 12, 150, 8);
  MapperOptions options;
  options.row_width = 90;
  const MappedProgram program = map_to_row(nl, options);
  arch::ArchParams params;
  params.n = 90;
  params.m = 9;
  for (const auto policy : {CoveragePolicy::kOutputsOnly,
                            CoveragePolicy::kInputsAndOutputs}) {
    const EccScheduleResult result = schedule_with_ecc(program, params, policy);
    EXPECT_GT(result.proposed_cycles, result.baseline_cycles);
    EXPECT_GE(result.overhead_fraction(), 0.0);
  }
}

TEST(EccSchedule, CriticalOpsEqualOutputGateWrites) {
  const Netlist nl = random_netlist(42, 12, 150, 8);
  MapperOptions options;
  options.row_width = 90;
  const MappedProgram program = map_to_row(nl, options);
  std::size_t output_writes = 0;
  for (const MappedOp& op : program.ops) {
    if (op.kind == MappedOp::Kind::kGate && op.writes_output) ++output_writes;
  }
  arch::ArchParams params;
  params.n = 90;
  params.m = 9;
  const EccScheduleResult result =
      schedule_with_ecc(program, params, CoveragePolicy::kOutputsOnly);
  EXPECT_EQ(result.critical_ops, output_writes);
  EXPECT_EQ(result.cancel_ops, 0u);
}

TEST(EccSchedule, InputsAndOutputsAddsCancelWork) {
  const Netlist nl = random_netlist(43, 16, 200, 6);
  MapperOptions options;
  options.row_width = 90;
  const MappedProgram program = map_to_row(nl, options);
  arch::ArchParams params;
  params.n = 90;
  params.m = 9;
  const auto outputs_only =
      schedule_with_ecc(program, params, CoveragePolicy::kOutputsOnly);
  const auto both =
      schedule_with_ecc(program, params, CoveragePolicy::kInputsAndOutputs);
  EXPECT_GE(both.proposed_cycles, outputs_only.proposed_cycles);
  EXPECT_LE(both.cancel_ops, nl.num_inputs());
}

TEST(EccSchedule, FindMinPcsIsInPaperRangeAndSufficient) {
  const Netlist nl = random_netlist(44, 12, 150, 10);
  MapperOptions options;
  options.row_width = 90;
  const MappedProgram program = map_to_row(nl, options);
  arch::ArchParams params;
  params.n = 90;
  params.m = 9;
  const std::size_t min_pcs =
      find_min_pcs(program, params, CoveragePolicy::kInputsAndOutputs);
  EXPECT_GE(min_pcs, 1u);
  EXPECT_LE(min_pcs, 8u);
  arch::ArchParams more = params;
  more.num_pcs = min_pcs;
  arch::ArchParams lots = params;
  lots.num_pcs = 32;
  EXPECT_EQ(schedule_with_ecc(program, more, CoveragePolicy::kInputsAndOutputs)
                .proposed_cycles,
            schedule_with_ecc(program, lots, CoveragePolicy::kInputsAndOutputs)
                .proposed_cycles);
}

}  // namespace
}  // namespace pimecc::simpler
