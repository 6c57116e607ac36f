// Unit tests for src/xbar: the crossbar + MAGIC simulator.
#include <gtest/gtest.h>

#include "oracle/reference_crossbar.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::xbar {
namespace {

using util::BitVector;

TEST(Crossbar, RejectsEmptyDimensions) {
  EXPECT_THROW(Crossbar(0, 4), std::invalid_argument);
  EXPECT_THROW(Crossbar(4, 0), std::invalid_argument);
}

TEST(Crossbar, RowAndColumnReadWrite) {
  Crossbar xb(4, 6);
  xb.write_row(1, BitVector::from_string("010101"));
  EXPECT_TRUE(xb.peek(1, 1));
  EXPECT_FALSE(xb.peek(1, 0));
  EXPECT_EQ(xb.contents().row(1).to_string(), "010101");
  EXPECT_THROW(xb.write_row(0, BitVector(5)), std::invalid_argument);
}

TEST(Crossbar, MagicInitSetsSelectedLinesAllLanes) {
  Crossbar xb(3, 5);
  const std::size_t lines[2] = {1, 4};
  xb.magic_init(Orientation::kRow, lines);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(xb.peek(r, 1));
    EXPECT_TRUE(xb.peek(r, 4));
    EXPECT_FALSE(xb.peek(r, 0));
  }
  EXPECT_EQ(xb.init_cycles(), 1u);
  EXPECT_EQ(xb.cycles(), 1u);
}

TEST(Crossbar, RowParallelNorTruthTable) {
  // Four rows enumerate all (a, b) combinations at columns 0 and 1.
  Crossbar xb(4, 3);
  xb.poke(1, 1, true);               // (0,1)
  xb.poke(2, 0, true);               // (1,0)
  xb.poke(3, 0, true);
  xb.poke(3, 1, true);               // (1,1)
  const std::size_t out[1] = {2};
  xb.magic_init(Orientation::kRow, out);
  const std::size_t ins[2] = {0, 1};
  const OpResult r = xb.magic_nor(Orientation::kRow, ins, 2);
  EXPECT_EQ(r.lanes, 4u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_TRUE(xb.peek(0, 2));   // NOR(0,0) = 1
  EXPECT_FALSE(xb.peek(1, 2));  // NOR(0,1) = 0
  EXPECT_FALSE(xb.peek(2, 2));  // NOR(1,0) = 0
  EXPECT_FALSE(xb.peek(3, 2));  // NOR(1,1) = 0
}

TEST(Crossbar, ColumnParallelNorMirrorsRowSemantics) {
  Crossbar xb(3, 4);
  xb.poke(1, 1, true);
  xb.poke(1, 3, true);
  xb.poke(0, 3, true);
  const std::size_t out[1] = {2};
  xb.magic_init(Orientation::kColumn, out);
  const std::size_t ins[2] = {0, 1};
  xb.magic_nor(Orientation::kColumn, ins, 2);
  for (std::size_t c = 0; c < 4; ++c) {
    const bool expected = !(xb.peek(0, c) || xb.peek(1, c));
    EXPECT_EQ(xb.peek(2, c), expected) << "column " << c;
  }
}

TEST(Crossbar, MagicNotIsOneInputNor) {
  Crossbar xb(2, 3);
  xb.poke(0, 0, true);
  const std::size_t out[1] = {1};
  xb.magic_init(Orientation::kRow, out);
  const std::size_t in[1] = {0};
  xb.magic_nor(Orientation::kRow, in, 1);
  EXPECT_FALSE(xb.peek(0, 1));
  EXPECT_TRUE(xb.peek(1, 1));
}

TEST(Crossbar, UninitializedOutputIsAViolationAndStaysHrs) {
  Crossbar xb(1, 3);
  // Inputs both 0 -> logical NOR is 1, but the output cell is HRS and a NOR
  // pulse can only switch LRS -> HRS, so it must stay 0.
  const std::size_t ins[2] = {0, 1};
  const OpResult r = xb.magic_nor(Orientation::kRow, ins, 2);
  EXPECT_EQ(r.violations, 1u);
  EXPECT_FALSE(xb.peek(0, 2));
}

TEST(Crossbar, NorRejectsOutputOverlappingInput) {
  Crossbar xb(2, 3);
  const std::size_t ins[2] = {0, 1};
  EXPECT_THROW(xb.magic_nor(Orientation::kRow, ins, 1), std::invalid_argument);
  EXPECT_THROW(xb.magic_nor(Orientation::kRow, {}, 2), std::invalid_argument);
}

TEST(Crossbar, CycleCountingAccumulatesPerKind) {
  Crossbar xb(2, 4);
  const std::size_t out[1] = {3};
  xb.magic_init(Orientation::kRow, out);
  const std::size_t ins[2] = {0, 1};
  xb.magic_nor(Orientation::kRow, ins, 3);
  xb.write_row(0, BitVector(4));
  EXPECT_EQ(xb.cycles(), 3u);
  EXPECT_EQ(xb.nor_ops(), 1u);
  EXPECT_EQ(xb.init_cycles(), 1u);
}

// A random mix of row writes, inits and NORs in both orientations: the
// word-parallel engine matches the bit-serial reference in every NOR's
// result, in the final contents and in the cycle counters.
TEST(Crossbar, FastAndReferenceEnginesAgreeOnARandomProgram) {
  constexpr std::size_t kN = 16;
  Crossbar fast(kN, kN);
  ReferenceCrossbar ref(kN, kN);
  util::Rng rng(2025);
  const auto orientation = [&rng] {
    return rng.bernoulli(0.5) ? Orientation::kRow : Orientation::kColumn;
  };
  for (int op = 0; op < 300; ++op) {
    switch (rng.uniform_below(3)) {
      case 0: {
        const std::size_t r = rng.uniform_below(kN);
        BitVector v(kN);
        for (std::size_t i = 0; i < kN; ++i) v.set(i, rng.bernoulli(0.5));
        fast.write_row(r, v);
        ref.write_row(r, v);
        break;
      }
      case 1: {
        const std::size_t lines[1] = {rng.uniform_below(kN)};
        const Orientation o = orientation();
        fast.magic_init(o, lines);
        ref.magic_init(o, lines);
        break;
      }
      default: {
        std::size_t in[2] = {rng.uniform_below(kN), rng.uniform_below(kN)};
        std::size_t out_line = rng.uniform_below(kN);
        while (out_line == in[0] || out_line == in[1]) {
          out_line = rng.uniform_below(kN);
        }
        if (in[0] == in[1]) in[1] = (in[1] + 1) % kN;
        const Orientation o = orientation();
        // Half the NORs skip their init, so violations are exercised too.
        if (rng.bernoulli(0.5)) {
          const std::size_t outs[1] = {out_line};
          fast.magic_init(o, outs);
          ref.magic_init(o, outs);
        }
        const OpResult fast_result = fast.magic_nor(o, in, out_line);
        const OpResult ref_result = ref.magic_nor(o, in, out_line);
        EXPECT_EQ(fast_result.lanes, ref_result.lanes) << "op " << op;
        EXPECT_EQ(fast_result.violations, ref_result.violations) << "op " << op;
        break;
      }
    }
  }
  EXPECT_EQ(fast.contents(), ref.contents());
  const Crossbar::Counters ref_counters{ref.cycles(), ref.nor_ops(),
                                        ref.init_cycles()};
  EXPECT_EQ(fast.counters(), ref_counters);
}

}  // namespace
}  // namespace pimecc::xbar
