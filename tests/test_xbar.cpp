// Unit tests for src/xbar: the crossbar + MAGIC simulator.
#include <gtest/gtest.h>

#include "util/bitvector.hpp"
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
  BitVector col(4);
  col.set(0, true);
  col.set(3, true);
  xb.write_column(5, col);
  EXPECT_EQ(xb.read_column(5), col);
  // The column write replaced bit (1,5) of the earlier row image.
  EXPECT_EQ(xb.read_row(1).to_string(), "010100");
  EXPECT_THROW(xb.write_row(0, BitVector(5)), std::invalid_argument);
}

TEST(Crossbar, BitAccessorsCountCycles) {
  Crossbar xb(3, 3);
  xb.write_bit(2, 2, true);
  EXPECT_TRUE(xb.read_bit(2, 2));
  EXPECT_EQ(xb.cycles(), 2u);
  EXPECT_THROW(xb.write_bit(3, 0, true), std::out_of_range);
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

TEST(Crossbar, MagicInitRespectsLaneSubset) {
  Crossbar xb(4, 4);
  const std::size_t lines[1] = {2};
  const std::size_t lanes[2] = {0, 3};
  xb.magic_init(Orientation::kRow, lines, lanes);
  EXPECT_TRUE(xb.peek(0, 2));
  EXPECT_FALSE(xb.peek(1, 2));
  EXPECT_FALSE(xb.peek(2, 2));
  EXPECT_TRUE(xb.peek(3, 2));
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
  xb.magic_not(Orientation::kRow, 0, 1);
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

TEST(Crossbar, NorRespectsLaneSubset) {
  Crossbar xb(3, 3);
  const std::size_t out[1] = {2};
  xb.magic_init(Orientation::kRow, out);
  const std::size_t ins[2] = {0, 1};
  const std::size_t lanes[1] = {1};
  const OpResult r = xb.magic_nor(Orientation::kRow, ins, 2, lanes);
  EXPECT_EQ(r.lanes, 1u);
  EXPECT_TRUE(xb.peek(1, 2));   // NOR(0,0)=1 in the selected lane
  EXPECT_TRUE(xb.peek(0, 2));   // untouched lanes keep their init value
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
  xb.reset_counters();
  EXPECT_EQ(xb.cycles(), 0u);
}

}  // namespace
}  // namespace pimecc::xbar
