// Tests for the multi-slope generalization of the diagonal code.
#include <set>
#include <gtest/gtest.h>

#include "oracle/multislope_code.hpp"
#include "oracle/reference_block_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::ecc {
namespace {

util::BitMatrix random_block(std::size_t m, std::uint64_t seed) {
  util::Rng rng(seed);
  util::BitMatrix mat(m, m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) mat.set(r, c, rng.bernoulli(0.5));
  }
  return mat;
}

TEST(MultiSlope, ValidatesSlopes) {
  EXPECT_THROW(MultiSlopeCodec(15, {3}), std::invalid_argument);   // gcd 3
  EXPECT_THROW(MultiSlopeCodec(15, {5}), std::invalid_argument);   // gcd 5
  EXPECT_THROW(MultiSlopeCodec(15, {1, 16}), std::invalid_argument);  // dup mod m
  EXPECT_THROW(MultiSlopeCodec(15, {}), std::invalid_argument);
  EXPECT_THROW(MultiSlopeCodec(0, {1}), std::invalid_argument);
  EXPECT_NO_THROW(MultiSlopeCodec(15, {1, 14, 2, 13}));
}

TEST(MultiSlope, KTwoMatchesThePaperDiagonalCode) {
  // Family slope 1 is the leading family ((r + c) mod m); slope m-1 is the
  // counter family ((r - c) mod m).
  const std::size_t m = 9;
  const MultiSlopeCodec multi(m, {1, m - 1});
  const ReferenceBlockCodec paper(m);
  const util::BitMatrix data = random_block(m, 5);
  const MultiCheckBits mc = multi.encode(data, 0, 0);
  const CheckBits pc = paper.encode(data, 0, 0);
  EXPECT_EQ(mc.family_parity[0], pc.leading);
  EXPECT_EQ(mc.family_parity[1], pc.counter);
}

TEST(MultiSlope, StorageOverheadScalesWithFamilies) {
  EXPECT_NEAR(MultiSlopeCodec(15, {1, 14}).storage_overhead(), 2.0 / 15, 1e-12);
  EXPECT_NEAR(MultiSlopeCodec(15, {1, 14, 2, 13}).storage_overhead(), 4.0 / 15,
              1e-12);
}

TEST(MultiSlope, ParallelOpTouchesEachLineOncePerFamily) {
  // The PIM-compatibility property that makes extra slopes free for the
  // continuous update: any coprime slope assigns the cells of one written
  // row (or column) to m distinct lines.
  const std::size_t m = 15;
  const MultiSlopeCodec codec(m, {1, 14, 2, 13, 4, 11});
  for (std::size_t f = 0; f < codec.families(); ++f) {
    for (std::size_t fixed = 0; fixed < m; ++fixed) {
      std::set<std::size_t> row_lines, col_lines;
      for (std::size_t i = 0; i < m; ++i) {
        row_lines.insert(codec.line_of(f, fixed, i));  // a written row
        col_lines.insert(codec.line_of(f, i, fixed));  // a written column
      }
      EXPECT_EQ(row_lines.size(), m) << "family " << f;
      EXPECT_EQ(col_lines.size(), m) << "family " << f;
    }
  }
}

TEST(MultiSlope, ContinuousUpdateMatchesReencode) {
  const std::size_t m = 15;
  const MultiSlopeCodec codec(m, {1, 14, 2});
  util::BitMatrix data = random_block(m, 7);
  MultiCheckBits check = codec.encode(data, 0, 0);
  util::Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    const std::size_t r = rng.uniform_below(m);
    const std::size_t c = rng.uniform_below(m);
    const bool old_value = data.get(r, c);
    const bool new_value = rng.bernoulli(0.5);
    data.set(r, c, new_value);
    codec.update_for_write(check, r, c, old_value, new_value);
  }
  EXPECT_EQ(check, codec.encode(data, 0, 0));
}

class MultiSlopeSingleErrorTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiSlopeSingleErrorTest, EverySinglePositionCorrectsUnderAllK) {
  const std::size_t position = GetParam();
  const std::size_t m = 9;
  for (const std::vector<std::size_t>& slopes :
       {std::vector<std::size_t>{1, m - 1},
        std::vector<std::size_t>{1, m - 1, 2},
        std::vector<std::size_t>{1, m - 1, 2, m - 2}}) {
    const MultiSlopeCodec codec(m, slopes);
    util::BitMatrix data = random_block(m, 11);
    const util::BitMatrix golden = data;
    MultiCheckBits check = codec.encode(data, 0, 0);
    data.flip(position / m, position % m);
    const MultiDecodeResult result = codec.check_and_correct(data, 0, 0, check);
    EXPECT_EQ(result.status, MultiDecodeStatus::kCorrected);
    EXPECT_EQ(data, golden) << "K=" << slopes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, MultiSlopeSingleErrorTest,
                         ::testing::Range<std::size_t>(0, 81));

TEST(MultiSlope, KTwoNeverMiscorrectsDoubles) {
  // Exhaustive over all C(81, 2) double errors at m=9: the paper's design
  // detects every double and never silently mangles data.
  const std::size_t m = 9;
  const MultiSlopeCodec codec(m, {1, m - 1});
  const util::BitMatrix golden = random_block(m, 13);
  const MultiCheckBits reference = codec.encode(golden, 0, 0);
  for (std::size_t i = 0; i < m * m; ++i) {
    for (std::size_t j = i + 1; j < m * m; ++j) {
      util::BitMatrix data = golden;
      data.flip(i / m, i % m);
      data.flip(j / m, j % m);
      MultiCheckBits check = reference;
      const MultiDecodeResult result =
          codec.check_and_correct(data, 0, 0, check);
      EXPECT_EQ(result.status, MultiDecodeStatus::kDetectedUncorrectable)
          << i << "," << j;
    }
  }
}

TEST(MultiSlope, KFourCorrectsMostDoublesAndNeverSilently) {
  const std::size_t m = 9;
  const MultiSlopeCodec codec(m, {1, m - 1, 2, m - 2});
  const util::BitMatrix golden = random_block(m, 17);
  const MultiCheckBits reference = codec.encode(golden, 0, 0);
  std::size_t corrected = 0, detected = 0, silent = 0;
  for (std::size_t i = 0; i < m * m; ++i) {
    for (std::size_t j = i + 1; j < m * m; ++j) {
      util::BitMatrix data = golden;
      data.flip(i / m, i % m);
      data.flip(j / m, j % m);
      MultiCheckBits check = reference;
      const MultiDecodeResult result =
          codec.check_and_correct(data, 0, 0, check);
      if (data == golden) {
        ++corrected;
      } else if (result.status == MultiDecodeStatus::kDetectedUncorrectable) {
        ++detected;
      } else {
        ++silent;
      }
    }
  }
  EXPECT_EQ(silent, 0u);
  // The large majority of doubles must now correct (measured: exactly 90%
  // at m=9; ambiguity comes from error pairs whose four line-pairs admit a
  // second consistent placement).
  EXPECT_GE(corrected, 85 * (m * m * (m * m - 1) / 2) / 100);
  EXPECT_EQ(corrected + detected, m * m * (m * m - 1) / 2);
}

TEST(MultiSlope, CheckBitCorruptionIsRepairedInStorage) {
  const std::size_t m = 9;
  const MultiSlopeCodec codec(m, {1, m - 1, 2});
  util::BitMatrix data = random_block(m, 19);
  const MultiCheckBits golden = codec.encode(data, 0, 0);
  MultiCheckBits check = golden;
  check.family_parity[2].flip(4);
  const MultiDecodeResult result = codec.check_and_correct(data, 0, 0, check);
  EXPECT_EQ(result.status, MultiDecodeStatus::kCorrected);
  EXPECT_EQ(result.corrected_check_bits, 1u);
  EXPECT_TRUE(result.corrected_cells.empty());
  EXPECT_EQ(check, golden);
}

TEST(MultiSlope, CleanBlockDecodesClean) {
  const std::size_t m = 15;
  const MultiSlopeCodec codec(m, {1, 14, 2, 13});
  util::BitMatrix data = random_block(m, 21);
  MultiCheckBits check = codec.encode(data, 0, 0);
  EXPECT_EQ(codec.check_and_correct(data, 0, 0, check).status,
            MultiDecodeStatus::kClean);
}

}  // namespace
}  // namespace pimecc::ecc
