// Unit + property tests for src/core: diagonal geometry, per-block codec,
// whole-array code, and the horizontal-parity strawman.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/array_code.hpp"
#include "core/block_code.hpp"
#include "core/geometry.hpp"
#include "oracle/horizontal_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::ecc {
namespace {

util::BitMatrix random_matrix(std::size_t rows, std::size_t cols,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  util::BitMatrix mat(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) mat.set(r, c, rng.bernoulli(0.5));
  }
  return mat;
}

// ------------------------------------------------------------------ geometry

TEST(DiagonalGeometry, RejectsEvenOrZeroBlockSize) {
  EXPECT_THROW(DiagonalGeometry(0), std::invalid_argument);
  EXPECT_THROW(DiagonalGeometry(2), std::invalid_argument);
  EXPECT_THROW(DiagonalGeometry(14), std::invalid_argument);
  EXPECT_NO_THROW(DiagonalGeometry(15));
}

TEST(DiagonalGeometry, MatchesPaperFormulas) {
  const DiagonalGeometry geo(5);
  EXPECT_EQ(geo.leading(0, 0), 0u);
  EXPECT_EQ(geo.leading(1, 2), 3u);
  EXPECT_EQ(geo.leading(4, 4), 3u);  // (4+4) mod 5
  EXPECT_EQ(geo.counter(0, 0), 0u);
  EXPECT_EQ(geo.counter(1, 2), 4u);  // (1-2) mod 5
  EXPECT_EQ(geo.counter(0, 4), 1u);  // (0-4) mod 5
}

TEST(DiagonalGeometry, AcceptsAbsoluteCoordinates) {
  const DiagonalGeometry geo(7);
  EXPECT_EQ(geo.leading(7 + 2, 14 + 3), geo.leading(2, 3));
  EXPECT_EQ(geo.counter(7 + 2, 14 + 3), geo.counter(2, 3));
}

class GeometryBijectionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeometryBijectionTest, DiagonalPairUniquelyLocatesEveryCell) {
  const std::size_t m = GetParam();
  const DiagonalGeometry geo(m);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const DiagonalPair d = geo.diagonals(r, c);
      EXPECT_TRUE(seen.insert({d.leading, d.counter}).second)
          << "two cells share diagonals for m=" << m;
      const Cell back = geo.locate(d);
      EXPECT_EQ(back.r, r);
      EXPECT_EQ(back.c, c);
    }
  }
  EXPECT_EQ(seen.size(), m * m);
}

INSTANTIATE_TEST_SUITE_P(OddBlockSizes, GeometryBijectionTest,
                         ::testing::Values(1, 3, 5, 7, 9, 11, 15, 17));

TEST(DiagonalGeometry, LocateRejectsOutOfRange) {
  const DiagonalGeometry geo(5);
  EXPECT_THROW((void)geo.locate({5, 0}), std::out_of_range);
  EXPECT_THROW((void)geo.locate({0, 5}), std::out_of_range);
}

// ---------------------------------------------------------------- BlockCodec

TEST(BlockCodec, EncodeComputesDiagonalParities) {
  // 3x3 block with a single set bit at (1, 2): leading diag (1+2)%3 = 0,
  // counter diag (1-2)%3 = 2.
  BlockCodec codec(3);
  util::BitMatrix data(3, 3);
  data.set(1, 2, true);
  const CheckBits check = codec.encode(data, 0, 0);
  EXPECT_EQ(check.leading.to_string(), "100");
  EXPECT_EQ(check.counter.to_string(), "001");
}

TEST(BlockCodec, EncodeRespectsWindowAnchor) {
  BlockCodec codec(3);
  util::BitMatrix data(6, 6);
  data.set(4, 5, true);  // inside block (1,1) at relative (1,2)
  const CheckBits anchored = codec.encode(data, 3, 3);
  EXPECT_EQ(anchored.leading.to_string(), "100");
  EXPECT_THROW((void)codec.encode(data, 4, 4), std::out_of_range);
}

TEST(BlockCodec, CleanBlockHasZeroSyndrome) {
  BlockCodec codec(5);
  const util::BitMatrix data = random_matrix(5, 5, 77);
  const CheckBits check = codec.encode(data, 0, 0);
  const Syndrome s = codec.compute_syndrome(data, 0, 0, check);
  EXPECT_TRUE(s.clean());
  EXPECT_EQ(codec.classify(s).status, DecodeStatus::kClean);
}

class SingleErrorTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SingleErrorTest, EveryDataBitPositionIsCorrected) {
  const auto [r, c] = GetParam();
  BlockCodec codec(5);
  util::BitMatrix data = random_matrix(5, 5, 101);
  const util::BitMatrix golden = data;
  CheckBits check = codec.encode(data, 0, 0);

  data.flip(r, c);
  const DecodeResult result = codec.check_and_correct(data, 0, 0, check);
  EXPECT_EQ(result.status, DecodeStatus::kCorrectedData);
  ASSERT_TRUE(result.data_error.has_value());
  EXPECT_EQ(result.data_error->r, r);
  EXPECT_EQ(result.data_error->c, c);
  EXPECT_EQ(data, golden);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, SingleErrorTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 5),
                       ::testing::Range<std::size_t>(0, 5)));

TEST(BlockCodec, SingleCheckBitErrorIsCorrectedInPlace) {
  BlockCodec codec(5);
  util::BitMatrix data = random_matrix(5, 5, 55);
  const CheckBits golden = codec.encode(data, 0, 0);
  for (std::size_t d = 0; d < 5; ++d) {
    for (const bool leading : {true, false}) {
      CheckBits corrupted = golden;
      (leading ? corrupted.leading : corrupted.counter).flip(d);
      const DecodeResult result = codec.check_and_correct(data, 0, 0, corrupted);
      EXPECT_EQ(result.status, DecodeStatus::kCorrectedCheck);
      ASSERT_TRUE(result.check_error.has_value());
      EXPECT_EQ(result.check_error->on_leading_axis, leading);
      EXPECT_EQ(result.check_error->index, d);
      EXPECT_EQ(corrupted, golden);
    }
  }
}

TEST(BlockCodec, EveryDoubleDataErrorIsDetectedNeverMiscorrected) {
  BlockCodec codec(5);
  util::BitMatrix base = random_matrix(5, 5, 303);
  const CheckBits check = codec.encode(base, 0, 0);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = i + 1; j < 25; ++j) {
      util::BitMatrix data = base;
      data.flip(i / 5, i % 5);
      data.flip(j / 5, j % 5);
      const Syndrome s = codec.compute_syndrome(data, 0, 0, check);
      const DecodeResult result = codec.classify(s);
      // The two flips land on distinct diagonal pairs (odd-m bijection), so
      // the signature can never look like one data error.
      EXPECT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
          << "flips " << i << "," << j;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 300u);  // C(25,2)
}

TEST(BlockCodec, DataPlusCheckDoubleErrorNeverDecodesClean) {
  // A data flip plus a check flip can look like either a correctable pattern
  // (if unrelated) or uncorrectable; it must never decode as *clean*.
  BlockCodec codec(5);
  util::BitMatrix base = random_matrix(5, 5, 404);
  const CheckBits golden = codec.encode(base, 0, 0);
  for (std::size_t bit = 0; bit < 25; ++bit) {
    for (std::size_t d = 0; d < 5; ++d) {
      util::BitMatrix data = base;
      data.flip(bit / 5, bit % 5);
      CheckBits check = golden;
      check.leading.flip(d);
      const Syndrome s = codec.compute_syndrome(data, 0, 0, check);
      EXPECT_NE(codec.classify(s).status, DecodeStatus::kClean);
    }
  }
}

TEST(BlockCodec, ContinuousUpdateMatchesReencode) {
  BlockCodec codec(7);
  util::Rng rng(11);
  util::BitMatrix data = random_matrix(7, 7, 12);
  CheckBits check = codec.encode(data, 0, 0);
  for (int step = 0; step < 500; ++step) {
    const std::size_t r = rng.uniform_below(7);
    const std::size_t c = rng.uniform_below(7);
    const bool old_value = data.get(r, c);
    const bool new_value = rng.bernoulli(0.5);
    data.set(r, c, new_value);
    codec.update_for_write(check, r, c, old_value, new_value);
  }
  EXPECT_EQ(check, codec.encode(data, 0, 0));
}

TEST(BlockCodec, CellCountsMatchPaper) {
  BlockCodec codec(15);
  EXPECT_EQ(codec.check_bit_count(), 30u);
  EXPECT_EQ(codec.cells_per_block(), 15u * 15u + 30u);
}

// ----------------------------------------------------------------- ArrayCode

TEST(ArrayCode, ValidatesGeometry) {
  EXPECT_THROW(ArrayCode(10, 4), std::invalid_argument);   // even m
  EXPECT_THROW(ArrayCode(10, 3), std::invalid_argument);   // m does not divide n
  EXPECT_NO_THROW(ArrayCode(15, 5));
}

TEST(ArrayCode, EncodeAllThenConsistent) {
  util::BitMatrix data = random_matrix(30, 30, 21);
  ArrayCode code(30, 5);
  EXPECT_EQ(code.block_count(), 36u);
  code.encode_all(data);
  EXPECT_TRUE(code.consistent_with(data));
  data.flip(17, 23);
  EXPECT_FALSE(code.consistent_with(data));
}

TEST(ArrayCode, RowParallelOpUpdatesStayConsistent) {
  // Simulate many row-parallel MAGIC writes (one column changes across all
  // rows) maintained only through continuous updates.
  const std::size_t n = 45;
  util::BitMatrix data = random_matrix(n, n, 31);
  ArrayCode code(n, 9);
  code.encode_all(data);
  util::Rng rng(32);
  for (int op = 0; op < 40; ++op) {
    const std::size_t col = rng.uniform_below(n);
    std::vector<CellWrite> writes;
    for (std::size_t r = 0; r < n; ++r) {
      const bool old_value = data.get(r, col);
      const bool new_value = rng.bernoulli(0.5);
      writes.push_back({r, col, old_value, new_value});
      data.set(r, col, new_value);
    }
    EXPECT_TRUE(code.writes_touch_each_diagonal_once(writes));
    code.apply_writes(writes);
  }
  EXPECT_TRUE(code.consistent_with(data));
}

TEST(ArrayCode, ColumnParallelOpTouchesEachDiagonalOnce) {
  const std::size_t n = 30;
  util::BitMatrix data = random_matrix(n, n, 41);
  ArrayCode code(n, 5);
  code.encode_all(data);
  std::vector<CellWrite> writes;
  for (std::size_t c = 0; c < n; ++c) {
    writes.push_back({7, c, data.get(7, c), !data.get(7, c)});
    data.flip(7, c);
  }
  EXPECT_TRUE(code.writes_touch_each_diagonal_once(writes));
  code.apply_writes(writes);
  EXPECT_TRUE(code.consistent_with(data));
}

TEST(ArrayCode, SameDiagonalTwiceViolatesTheta1Invariant) {
  ArrayCode code(15, 5);
  // (0,0) and (1,4): leading (0+0)%5=0 vs (1+4)%5=0 -- same leading diagonal
  // of the same block.
  std::vector<CellWrite> writes = {{0, 0, false, true}, {1, 4, false, true}};
  EXPECT_FALSE(code.writes_touch_each_diagonal_once(writes));
}

TEST(ArrayCode, CheckBlockCorrectsInjectedError) {
  util::BitMatrix data = random_matrix(15, 15, 51);
  const util::BitMatrix golden = data;
  ArrayCode code(15, 5);
  code.encode_all(data);
  data.flip(8, 2);  // block (1, 0)
  const BlockRepair result = code.scrub_block(data, {1, 0});
  EXPECT_EQ(result.status, DecodeStatus::kCorrectedData);
  EXPECT_EQ(data, golden);
}

TEST(ArrayCode, ScrubReportsPerBlockOutcomes) {
  util::BitMatrix data = random_matrix(15, 15, 61);
  ArrayCode code(15, 5);
  code.encode_all(data);
  data.flip(0, 0);             // single error in block (0,0): corrected
  data.flip(6, 6);             // two errors in block (1,1): uncorrectable
  data.flip(7, 7);
  const ScrubReport report = code.scrub(data);
  EXPECT_EQ(report.blocks_checked, 9u);
  EXPECT_EQ(report.corrected_data, 1u);
  EXPECT_EQ(report.uncorrectable, 1u);
  EXPECT_EQ(report.clean, 7u);
}

TEST(ArrayCode, ApplyWritesRejectsOutOfRange) {
  ArrayCode code(15, 5);
  std::vector<CellWrite> writes = {{15, 0, false, true}};
  EXPECT_THROW(code.apply_writes(writes), std::out_of_range);
}

// ------------------------------------------------------------ HorizontalCode

TEST(HorizontalCode, ValidatesShape) {
  EXPECT_THROW(HorizontalCode(10, 3), std::invalid_argument);
  EXPECT_THROW(HorizontalCode(0, 1), std::invalid_argument);
  EXPECT_NO_THROW(HorizontalCode(16, 8));
}

TEST(HorizontalCode, EncodeAndDetect) {
  util::BitMatrix data = random_matrix(16, 16, 71);
  HorizontalCode code(16, 8);
  code.encode_all(data);
  EXPECT_TRUE(code.consistent_with(data));
  EXPECT_FALSE(code.group_has_error(data, 3, 1));
  data.flip(3, 12);
  EXPECT_TRUE(code.group_has_error(data, 3, 1));
  EXPECT_FALSE(code.consistent_with(data));
}

TEST(HorizontalCode, ContinuousUpdateMatchesReencode) {
  util::BitMatrix data = random_matrix(16, 16, 81);
  HorizontalCode code(16, 8);
  code.encode_all(data);
  util::Rng rng(82);
  for (int i = 0; i < 200; ++i) {
    const std::size_t r = rng.uniform_below(16);
    const std::size_t c = rng.uniform_below(16);
    const bool old_value = data.get(r, c);
    const bool new_value = rng.bernoulli(0.5);
    data.set(r, c, new_value);
    code.apply_writes({{r, c, old_value, new_value}});
  }
  EXPECT_TRUE(code.consistent_with(data));
}

TEST(HorizontalCode, UpdateCostIsThetaNForFullRowWrite) {
  // The Section III argument: a column-parallel op rewriting a whole row
  // costs n reads under horizontal grouping, but a single changed bit in a
  // group costs 1.
  const std::size_t n = 64;
  HorizontalCode code(n, 8);
  std::vector<CellWrite> full_row;
  for (std::size_t c = 0; c < n; ++c) full_row.push_back({0, c, false, true});
  EXPECT_EQ(code.update_cost_reads(full_row), n);

  std::vector<CellWrite> one_bit = {{0, 5, false, true}};
  EXPECT_EQ(code.update_cost_reads(one_bit), 1u);

  // A row-parallel op (one column, all rows) costs Theta(#writes), not n^2.
  std::vector<CellWrite> one_col;
  for (std::size_t r = 0; r < n; ++r) one_col.push_back({r, 5, false, true});
  EXPECT_EQ(code.update_cost_reads(one_col), n);
}

TEST(HorizontalCode, UnchangedWritesCostNothing) {
  HorizontalCode code(16, 8);
  std::vector<CellWrite> writes = {{0, 0, true, true}, {0, 1, false, false}};
  EXPECT_EQ(code.update_cost_reads(writes), 0u);
}

}  // namespace
}  // namespace pimecc::ecc
