// Tests for src/bench_circuits: every generated benchmark circuit must
// match its bit-accurate reference model -- exhaustively where the input
// space is small, on random vectors otherwise -- and have the documented
// PI/PO shape.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_circuits/circuits.hpp"
#include "bench_circuits/pla.hpp"
#include "bench_circuits/ref_util.hpp"
#include "oracle/reference_eval.hpp"
#include "simpler/logic.hpp"
#include "simpler/mapper.hpp"
#include "simpler/row_vm.hpp"
#include "xbar/crossbar.hpp"
#include "util/rng.hpp"

namespace pimecc::circuits {
namespace {

util::BitVector random_input(util::Rng& rng, std::size_t bits, double density) {
  util::BitVector in(bits);
  for (std::size_t i = 0; i < bits; ++i) in.set(i, rng.bernoulli(density));
  return in;
}

// ----------------------------------------------------------------- ref_util

// A field wider than 64 bits zero-extends the value; the old implementation
// shifted the 64-bit value by the in-field bit index, which is UB (caught by
// the UBSan CI stage) from bit 64 on.
TEST(RefUtil, WideFieldsZeroExtendWithoutWideShifts) {
  util::BitVector v(200);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, true);
  set_bits(v, 3, 128, 0x8000'0000'0000'0005ull);
  EXPECT_TRUE(v.get(3));        // bit 0 of the value
  EXPECT_TRUE(v.get(5));        // bit 2
  EXPECT_FALSE(v.get(4));       // bit 1
  EXPECT_TRUE(v.get(3 + 63));   // bit 63
  for (std::size_t i = 64; i < 128; ++i) EXPECT_FALSE(v.get(3 + i)) << i;
  EXPECT_TRUE(v.get(0) && v.get(3 + 128));  // neighbors untouched
  // get_bits over a wide field returns the low 64 bits.
  EXPECT_EQ(get_bits(v, 3, 128), 0x8000'0000'0000'0005ull);
  EXPECT_EQ(get_bits(v, 3, 64), 0x8000'0000'0000'0005ull);
}

// ------------------------------------------------------------------ registry

TEST(Registry, ElevenCircuitsInTableOrder) {
  const auto& names = circuit_names();
  ASSERT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "adder");
  EXPECT_EQ(names.back(), "voter");
  EXPECT_THROW((void)build_circuit("nope"), std::invalid_argument);
}

struct Shape {
  const char* name;
  std::size_t pi;
  std::size_t po;
};

// Without this, GoogleTest prints Shape as raw bytes, name pointer included,
// so the listed test names would change with every address-space layout.
void PrintTo(const Shape& shape, std::ostream* os) {
  *os << "pi=" << shape.pi << " po=" << shape.po;
}

class ShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeTest, MatchesDocumentedInterface) {
  const Shape shape = GetParam();
  const CircuitSpec spec = build_circuit(shape.name);
  EXPECT_EQ(spec.netlist.num_inputs(), shape.pi) << shape.name;
  EXPECT_EQ(spec.netlist.num_outputs(), shape.po) << shape.name;
  EXPECT_GT(spec.netlist.num_gates(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, ShapeTest,
    ::testing::Values(Shape{"adder", 256, 129}, Shape{"arbiter", 112, 57},
                      Shape{"bar", 135, 128}, Shape{"cavlc", 10, 11},
                      Shape{"ctrl", 7, 26}, Shape{"dec", 8, 256},
                      Shape{"int2float", 11, 7}, Shape{"max", 512, 130},
                      Shape{"priority", 128, 8}, Shape{"sin", 24, 25},
                      Shape{"voter", 1001, 1}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// Random netlist-vs-reference agreement for every circuit.
class AgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AgreementTest, NetlistMatchesReferenceOnRandomVectors) {
  const CircuitSpec spec = build_circuit(GetParam());
  util::Rng rng(std::hash<std::string>{}(GetParam()));
  const int trials = spec.netlist.num_inputs() > 500 ? 10 : 40;
  for (int t = 0; t < trials; ++t) {
    // Mix densities so sparse patterns (arbiter/priority) get exercised.
    const double density = t % 3 == 0 ? 0.05 : (t % 3 == 1 ? 0.5 : 0.9);
    const util::BitVector in =
        random_input(rng, spec.netlist.num_inputs(), density);
    EXPECT_EQ(simpler::eval_netlist(spec.netlist, in), spec.reference(in))
        << GetParam() << " trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, AgreementTest,
                         ::testing::ValuesIn(circuit_names()),
                         [](const auto& param_info) { return param_info.param; });

// The in-place model overwrites every bit of a reused buffer: one filled
// with ones, wider (past the next word) or narrower than the outputs, ends
// up equal to the netlist's answer.  Every input assignment when there are
// at most 2^11 of them, random vectors otherwise.
class InPlaceReferenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InPlaceReferenceTest, EvaluateOverwritesADirtyBufferOfAnotherWidth) {
  const CircuitSpec spec = build_circuit(GetParam());
  const std::size_t pi = spec.netlist.num_inputs();
  const std::size_t po = spec.netlist.num_outputs();
  const auto check = [&](const util::BitVector& in) {
    for (const std::size_t width : {po + 67, po / 2}) {
      util::BitVector out(width, true);
      spec.evaluate(in, out);
      ASSERT_EQ(out, simpler::eval_netlist(spec.netlist, in))
          << GetParam() << " dirty width " << width << " input " << in.to_string();
    }
  };
  if (pi <= 11) {
    for (std::size_t v = 0; v < (std::size_t{1} << pi); ++v) {
      util::BitVector in(pi);
      set_bits(in, 0, pi, v);
      check(in);
    }
    return;
  }
  util::Rng rng(std::hash<std::string>{}(GetParam()) ^ 0x1A9Cu);
  for (int t = 0; t < 30; ++t) {
    const double density = t % 3 == 0 ? 0.02 : (t % 3 == 1 ? 0.5 : 0.95);
    check(random_input(rng, pi, density));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, InPlaceReferenceTest,
                         ::testing::ValuesIn(circuit_names()),
                         [](const auto& param_info) { return param_info.param; });

// ----------------------------------------------- exhaustive small circuits

TEST(Dec, ExhaustiveAllInputsOneHot) {
  const CircuitSpec spec = build_circuit("dec");
  for (std::size_t v = 0; v < 256; ++v) {
    util::BitVector in(8);
    set_bits(in, 0, 8, v);
    const util::BitVector out = simpler::eval_netlist(spec.netlist, in);
    EXPECT_EQ(out.count(), 1u);
    EXPECT_TRUE(out.get(v));
    EXPECT_EQ(out, spec.reference(in));
  }
}

TEST(Ctrl, ExhaustiveMatchesPla) {
  const CircuitSpec spec = build_circuit("ctrl");
  for (std::size_t v = 0; v < 128; ++v) {
    util::BitVector in(7);
    set_bits(in, 0, 7, v);
    EXPECT_EQ(simpler::eval_netlist(spec.netlist, in), spec.reference(in))
        << "input " << v;
  }
}

TEST(Cavlc, ExhaustiveMatchesPla) {
  const CircuitSpec spec = build_circuit("cavlc");
  for (std::size_t v = 0; v < 1024; ++v) {
    util::BitVector in(10);
    set_bits(in, 0, 10, v);
    EXPECT_EQ(simpler::eval_netlist(spec.netlist, in), spec.reference(in))
        << "input " << v;
  }
}

TEST(PlaTable, CircuitModelsEqualTheTermLoopOnEveryInput) {
  // ctrl's and cavlc's models read a truth table built from their PLA
  // spec; every entry must be what eval_pla's term loop computes.
  for (const auto& [name, pla] : {std::pair{"ctrl", ctrl_pla()},
                                  std::pair{"cavlc", cavlc_pla()}}) {
    const CircuitSpec spec = build_circuit(name);
    ASSERT_EQ(spec.netlist.num_inputs(), pla.num_inputs) << name;
    util::BitVector expected;
    util::BitVector actual(3, true);  // dirty, of another width
    for (std::size_t v = 0; v < (std::size_t{1} << pla.num_inputs); ++v) {
      util::BitVector in(pla.num_inputs);
      set_bits(in, 0, pla.num_inputs, v);
      eval_pla(pla, in, expected);
      spec.evaluate(in, actual);
      ASSERT_EQ(actual, expected) << name << " input " << v;
    }
  }
}

TEST(PlaTable, EqualsTheTermLoopOnEveryInputOfOtherSpecs) {
  // Random specs of several widths, and a hand-written one whose first
  // term wants a 1 above its last input (so it never matches) and whose
  // last term has no care bits (so it always does).
  std::vector<PlaSpec> specs;
  for (const std::size_t k : {1u, 3u, 8u, 12u}) specs.push_back(make_table_pla(k, 5, 20, k));
  PlaSpec hand;
  hand.num_inputs = 4;
  hand.num_outputs = 3;
  hand.terms = {{0x30, 0x10, 0x1}, {0x21, 0x01, 0x2}, {0x0, 0x0, 0x4}};
  specs.push_back(hand);
  for (const PlaSpec& spec : specs) {
    const PlaTable table(spec);
    util::BitVector expected;
    util::BitVector actual;
    for (std::size_t v = 0; v < (std::size_t{1} << spec.num_inputs); ++v) {
      util::BitVector in(spec.num_inputs);
      set_bits(in, 0, spec.num_inputs, v);
      eval_pla(spec, in, expected);
      table.evaluate(in, actual);
      ASSERT_EQ(actual, expected) << spec.num_inputs << " inputs, input " << v;
    }
  }
}

TEST(PlaTable, RejectsMoreThanSixteenInputsAndWrongInputCounts) {
  EXPECT_NO_THROW(PlaTable(make_table_pla(16, 4, 8, 1)));
  EXPECT_THROW(PlaTable(make_table_pla(17, 4, 8, 1)), std::invalid_argument);
  const PlaTable table(ctrl_pla());
  util::BitVector out;
  EXPECT_THROW(table.evaluate(util::BitVector(8), out), std::invalid_argument);
}

TEST(Int2Float, ExhaustiveAllElevenBitInputs) {
  const CircuitSpec spec = build_circuit("int2float");
  for (std::size_t v = 0; v < 2048; ++v) {
    util::BitVector in(11);
    set_bits(in, 0, 11, v);
    EXPECT_EQ(simpler::eval_netlist(spec.netlist, in), spec.reference(in))
        << "input " << v;
  }
}

// ------------------------------------------------------- semantic spot tests

TEST(Adder, AddsSpecificValues) {
  const CircuitSpec spec = build_circuit("adder");
  util::BitVector in(256);
  // 1 + 1 = 2.
  in.set(0, true);
  in.set(128, true);
  util::BitVector out = simpler::eval_netlist(spec.netlist, in);
  EXPECT_FALSE(out.get(0));
  EXPECT_TRUE(out.get(1));
  EXPECT_FALSE(out.get(128));
  // All-ones + 1 carries out.
  util::BitVector in2(256);
  for (std::size_t i = 0; i < 128; ++i) in2.set(i, true);
  in2.set(128, true);
  out = simpler::eval_netlist(spec.netlist, in2);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_FALSE(out.get(i));
  EXPECT_TRUE(out.get(128));
}

TEST(Bar, RotationIdentityAndFullTurnEdges) {
  const CircuitSpec spec = build_circuit("bar");
  util::Rng rng(3);
  util::BitVector data = random_input(rng, 128, 0.5);
  for (const std::size_t amount : {std::size_t{0}, std::size_t{1},
                                   std::size_t{64}, std::size_t{127}}) {
    util::BitVector in(135);
    for (std::size_t i = 0; i < 128; ++i) in.set(i, data.get(i));
    set_bits(in, 128, 7, amount);
    const util::BitVector out = simpler::eval_netlist(spec.netlist, in);
    for (std::size_t i = 0; i < 128; ++i) {
      EXPECT_EQ(out.get((i + amount) % 128), data.get(i)) << "amount " << amount;
    }
  }
}

TEST(Priority, LowestIndexWinsAndValidTracksAnyRequest) {
  const CircuitSpec spec = build_circuit("priority");
  util::BitVector in(128);
  // no request: invalid, idx 0
  EXPECT_EQ(simpler::eval_netlist(spec.netlist, in).count(), 0u);
  in.set(77, true);
  in.set(100, true);
  const util::BitVector out = simpler::eval_netlist(spec.netlist, in);
  EXPECT_EQ(get_bits(out, 0, 7), 77u);
  EXPECT_TRUE(out.get(7));
}

TEST(Voter, MajorityBoundary) {
  const CircuitSpec spec = build_circuit("voter");
  util::BitVector in(1001);
  for (std::size_t i = 0; i < 500; ++i) in.set(i, true);
  EXPECT_FALSE(simpler::eval_netlist(spec.netlist, in).get(0));  // 500 < 501
  in.set(700, true);
  EXPECT_TRUE(simpler::eval_netlist(spec.netlist, in).get(0));   // 501 >= 501
  util::BitVector all(1001, true);
  EXPECT_TRUE(simpler::eval_netlist(spec.netlist, all).get(0));
}

TEST(Max, PicksMaximumAndTiesPreferEarlier) {
  const CircuitSpec spec = build_circuit("max");
  util::BitVector in(512);
  // a = 5, b = 9, c = 9, d = 2 -> max 9 at index 1 (b beats the tying c).
  set_bits(in, 0, 128, 5);
  set_bits(in, 128, 128, 9);
  set_bits(in, 256, 128, 9);
  set_bits(in, 384, 128, 2);
  const util::BitVector out = simpler::eval_netlist(spec.netlist, in);
  EXPECT_EQ(get_bits(out, 0, 64), 9u);
  EXPECT_TRUE(out.get(128));    // idx low bit = 1
  EXPECT_FALSE(out.get(129));   // idx high bit = 0
  EXPECT_EQ(out, spec.reference(in));
}

TEST(Arbiter, OneHotPointerGrantsFirstRequesterAtOrAfter) {
  const CircuitSpec spec = build_circuit("arbiter");
  util::BitVector in(112);
  in.set(10, true);          // request from client 10
  in.set(30, true);          // request from client 30
  in.set(56 + 20, true);     // pointer at position 20
  const util::BitVector out = simpler::eval_netlist(spec.netlist, in);
  EXPECT_TRUE(out.get(30));  // first requester at/after 20
  EXPECT_FALSE(out.get(10));
  EXPECT_TRUE(out.get(56));  // valid
  EXPECT_EQ(out.count(), 2u);
}

TEST(Arbiter, WrapsAroundAndDefaultsToPositionZero) {
  const CircuitSpec spec = build_circuit("arbiter");
  util::BitVector wrap(112);
  wrap.set(3, true);
  wrap.set(56 + 50, true);  // pointer past the only request: wraps to 3
  EXPECT_TRUE(simpler::eval_netlist(spec.netlist, wrap).get(3));
  util::BitVector no_ptr(112);
  no_ptr.set(40, true);
  // head defaults to 0
  EXPECT_TRUE(simpler::eval_netlist(spec.netlist, no_ptr).get(40));
}

TEST(Sin, TracksRealSineWithinApproximationError) {
  // The spec is the x - x^3/6 polynomial; verify the generated circuit's
  // *reference* is within the expected error of sin on [0, 1) radians.
  const CircuitSpec spec = build_circuit("sin");
  for (const double u : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto x = static_cast<std::uint64_t>(u * 16777216.0);
    util::BitVector in(24);
    set_bits(in, 0, 24, x);
    const util::BitVector out = spec.reference(in);
    const double got = static_cast<double>(get_bits(out, 0, 24)) / 16777216.0;
    // Cubic Taylor truncation + 12-bit operand truncation: a few e-3.
    EXPECT_NEAR(got, std::sin(u), 8e-3) << "u=" << u;
  }
}


// ------------------------------------------------- mapped execution (all)



class MappedExecutionTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MappedExecutionTest, SimplerMappedProgramMatchesReference) {
  // The full Table I front half for every benchmark: build, map into the
  // paper's 1020-cell row, execute with genuine MAGIC semantics, compare
  // against the reference model.
  const CircuitSpec spec = build_circuit(GetParam());
  simpler::MapperOptions options;
  options.row_width = 1020;
  const simpler::MappedProgram program =
      simpler::map_to_row(spec.netlist, options);
  EXPECT_LE(program.peak_cells_used, options.row_width);

  // One crossbar row per trial, all run at once by the SIMD executor.
  util::Rng rng(std::hash<std::string>{}(GetParam()) ^ 0xEEC);
  const std::size_t trials = spec.netlist.num_gates() > 5000 ? 2 : 5;
  util::BitMatrix inputs(trials, spec.netlist.num_inputs());
  for (std::size_t t = 0; t < trials; ++t) {
    inputs.row(t) =
        random_input(rng, spec.netlist.num_inputs(), t % 2 == 0 ? 0.5 : 0.1);
  }
  xbar::Crossbar xb(trials, options.row_width);
  const simpler::SimdRunResult run =
      simpler::run_simd(spec.netlist, program, xb, inputs);
  EXPECT_EQ(run.violations, 0u) << GetParam();
  EXPECT_EQ(run.cycles, program.baseline_cycles()) << GetParam();
  for (std::size_t t = 0; t < trials; ++t) {
    EXPECT_EQ(run.outputs.row(t), spec.reference(inputs.row(t)))
        << GetParam() << " trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, MappedExecutionTest,
                         ::testing::ValuesIn(circuit_names()),
                         [](const auto& param_info) { return param_info.param; });
// ----------------------------------------------------------------- PLA layer

TEST(Pla, SynthesisMatchesEvalOnRandomSpecs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const PlaSpec pla = make_table_pla(8, 6, 20, seed);
    simpler::Netlist nl("pla");
    simpler::LogicBuilder b(nl);
    const simpler::Bus ins = b.input_bus(8);
    b.output_bus(synthesize_pla(b, ins, pla));
    for (std::size_t v = 0; v < 256; ++v) {
      util::BitVector in(8);
      set_bits(in, 0, 8, v);
      util::BitVector expected;
      eval_pla(pla, in, expected);
      EXPECT_EQ(simpler::eval_netlist(nl, in), expected)
          << "seed " << seed << " v " << v;
    }
  }
}

TEST(Pla, DeterministicGeneration) {
  const PlaSpec a = make_table_pla(10, 11, 90, 42);
  const PlaSpec b = make_table_pla(10, 11, 90, 42);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].care_mask, b.terms[i].care_mask);
    EXPECT_EQ(a.terms[i].match_value, b.terms[i].match_value);
    EXPECT_EQ(a.terms[i].output_mask, b.terms[i].output_mask);
  }
}

TEST(Pla, ValidatesShape) {
  EXPECT_THROW((void)make_table_pla(0, 5, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)make_table_pla(40, 5, 5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace pimecc::circuits
