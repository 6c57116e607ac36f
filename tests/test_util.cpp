// Unit tests for src/util: bit containers, RNG, modular math, statistics,
// table rendering, reliability units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "oracle/multislope_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "util/modmath.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace pimecc::util {
namespace {

// ---------------------------------------------------------------- BitVector

TEST(BitVector, StartsAllZero) {
  const BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  EXPECT_TRUE(v.none());
  EXPECT_FALSE(v.any());
}

TEST(BitVector, FillConstructorSetsEveryBit) {
  const BitVector v(70, true);
  EXPECT_EQ(v.count(), 70u);
  EXPECT_TRUE(v.all());
}

TEST(BitVector, SetGetFlipRoundTrip) {
  BitVector v(100);
  v.set(63, true);
  v.set(64, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(65));
  EXPECT_FALSE(v.flip(63));
  EXPECT_EQ(v.count(), 1u);
}

TEST(BitVector, FromStringParsesAndRejects) {
  const BitVector v = BitVector::from_string("01101");
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_FALSE(v.get(3));
  EXPECT_TRUE(v.get(4));
  EXPECT_EQ(v.to_string(), "01101");
  EXPECT_THROW(BitVector::from_string("01x"), std::invalid_argument);
}

TEST(BitVector, AtThrowsOutOfRange) {
  const BitVector v(10);
  EXPECT_NO_THROW((void)v.at(9));
  EXPECT_THROW((void)v.at(10), std::out_of_range);
}

TEST(BitVector, ParityMatchesCountParity) {
  BitVector v(200);
  EXPECT_FALSE(v.parity());
  v.set(3, true);
  EXPECT_TRUE(v.parity());
  v.set(150, true);
  EXPECT_FALSE(v.parity());
  v.set(199, true);
  EXPECT_TRUE(v.parity());
}

TEST(BitVector, FindFirstAndNextWalkSetBits) {
  BitVector v(150);
  v.set(5, true);
  v.set(64, true);
  v.set(149, true);
  EXPECT_EQ(v.find_first(), 5u);
  EXPECT_EQ(v.find_next(5), 64u);
  EXPECT_EQ(v.find_next(64), 149u);
  EXPECT_EQ(v.find_next(149), 150u);
  EXPECT_EQ(v.set_bits(), (std::vector<std::size_t>{5, 64, 149}));
}

TEST(BitVector, FindFirstOnEmptyReturnsSize) {
  const BitVector v(33);
  EXPECT_EQ(v.find_first(), 33u);
}

TEST(BitVector, LogicOperatorsMatchSemantics) {
  const BitVector a = BitVector::from_string("0011");
  const BitVector b = BitVector::from_string("0101");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((a | b).to_string(), "0111");
  EXPECT_EQ((a & b).to_string(), "0001");
  EXPECT_EQ((~a).to_string(), "1100");
  BitVector nor = a;
  nor.nor_assign(b);
  EXPECT_EQ(nor.to_string(), "1000");
}

TEST(BitVector, InvertKeepsPaddingClean) {
  BitVector v(67);
  v.invert();
  EXPECT_EQ(v.count(), 67u);  // padding bits must not leak into count
  v.invert();
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(8), b(9);
  EXPECT_THROW(a ^= b, std::invalid_argument);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a &= b, std::invalid_argument);
  EXPECT_THROW(a.nor_assign(b), std::invalid_argument);
  EXPECT_THROW((void)a.hamming_distance(b), std::invalid_argument);
}

TEST(BitVector, HammingDistanceCountsDifferences) {
  const BitVector a = BitVector::from_string("110010");
  const BitVector b = BitVector::from_string("011010");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVector, ResizePreservesPrefix) {
  BitVector v(10);
  v.set(7, true);
  v.resize(80);
  EXPECT_TRUE(v.get(7));
  EXPECT_EQ(v.count(), 1u);
}

TEST(BitVector, WordSpansExposeBackingStorage) {
  BitVector v(70);
  EXPECT_EQ(v.word_count(), 2u);
  v.set(0, true);
  v.set(64, true);
  EXPECT_EQ(v.words()[0], 1ull);
  EXPECT_EQ(v.words()[1], 1ull);
  v.words_mutable()[1] = ~0ull;  // sets padding bits beyond size()
  v.sanitize();
  EXPECT_EQ(v.count(), 7u);  // bit 0 + bits 64..69
}

TEST(BitVector, LowWordReadsAndWritesWordZero) {
  BitVector v(7);
  EXPECT_EQ(v.low_word(), 0ull);
  v.set_low_word(0b101ull);
  EXPECT_EQ(v.low_word(), 0b101ull);
  EXPECT_EQ(v.to_string(), "1010000");
  // Stray bits beyond size() are discarded by the padding invariant.
  v.set_low_word(~0ull);
  EXPECT_EQ(v.count(), 7u);
  EXPECT_EQ(v.low_word(), 0x7Full);
  // On a multi-word vector, word 0 carries no padding and is kept whole.
  BitVector wide(70);
  wide.set_low_word(~0ull);
  EXPECT_EQ(wide.count(), 64u);
  EXPECT_EQ(wide.low_word(), ~0ull);
  EXPECT_EQ(BitVector().low_word(), 0ull);
}

TEST(BitVector, AssignMaskedMergesByMask) {
  BitVector dst = BitVector::from_string("110000");
  const BitVector src = BitVector::from_string("001111");
  const BitVector mask = BitVector::from_string("011110");
  dst.assign_masked(src, mask);
  EXPECT_EQ(dst.to_string(), "101110");
  BitVector wrong(5);
  EXPECT_THROW(dst.assign_masked(wrong, mask), std::invalid_argument);
}

TEST(BitVector, IntersectsAndCountAndNot) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("0110");
  const BitVector c = BitVector::from_string("0011");
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.count_and_not(b), 1u);  // bit 0
  EXPECT_EQ(a.count_and_not(c), 2u);
  BitVector wrong(5);
  EXPECT_THROW((void)a.intersects(wrong), std::invalid_argument);
  EXPECT_THROW((void)a.count_and_not(wrong), std::invalid_argument);
}

// ---------------------------------------------------------------- BitMatrix

TEST(BitMatrix, ShapeAndAccess) {
  BitMatrix m(4, 9);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 9u);
  m.set(2, 8, true);
  EXPECT_TRUE(m.get(2, 8));
  EXPECT_TRUE(m.at(2, 8));
  EXPECT_THROW((void)m.at(4, 0), std::out_of_range);
}

TEST(BitMatrix, ColumnExtractAndStore) {
  BitMatrix m(5, 5);
  BitVector col(5);
  col.set(1, true);
  col.set(4, true);
  m.set_column(3, col);
  EXPECT_EQ(m.column(3), col);
  EXPECT_TRUE(m.get(1, 3));
  EXPECT_TRUE(m.get(4, 3));
  EXPECT_EQ(m.count(), 2u);
}

TEST(BitMatrix, RowReferenceIsLive) {
  BitMatrix m(3, 8);
  m.row(1).set(6, true);
  EXPECT_TRUE(m.get(1, 6));
}

TEST(BitMatrix, ColumnIntoMatchesBitSerialExtraction) {
  Rng rng(17);
  BitMatrix m(70, 130);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) m.set(r, c, rng.bernoulli(0.5));
  }
  BitVector out;
  for (const std::size_t c : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{129}}) {
    m.column_into(c, out);
    ASSERT_EQ(out.size(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(out.get(r), m.get(r, c)) << "r=" << r << " c=" << c;
    }
  }
  EXPECT_THROW(m.column_into(130, out), std::out_of_range);
}

TEST(BitMatrix, ColumnIntoOverwritesDirtyReusedBuffer) {
  // The single-pass store must fully overwrite a reused scratch buffer --
  // stale set bits from a previous (larger) extraction must not survive,
  // including in the final partial word.
  BitMatrix m(70, 4);
  m.set(0, 1, true);
  m.set(69, 1, true);
  BitVector out(100, true);
  m.column_into(1, out);
  ASSERT_EQ(out.size(), 70u);
  EXPECT_EQ(out.count(), 2u);
  EXPECT_TRUE(out.get(0));
  EXPECT_TRUE(out.get(69));
  m.column_into(0, out);
  EXPECT_EQ(out.count(), 0u);
}

TEST(BitMatrix, OrColumnIntoAccumulates) {
  BitMatrix m(5, 5);
  m.set(1, 2, true);
  m.set(4, 3, true);
  BitVector acc(5);
  m.or_column_into(2, acc);
  m.or_column_into(3, acc);
  EXPECT_TRUE(acc.get(1));
  EXPECT_TRUE(acc.get(4));
  EXPECT_EQ(acc.count(), 2u);
  BitVector wrong(4);
  EXPECT_THROW(m.or_column_into(0, wrong), std::invalid_argument);
  EXPECT_THROW(m.or_column_into(5, acc), std::out_of_range);
}

TEST(BitMatrix, SetColumnRoundTripsAcrossWordBoundaries) {
  Rng rng(23);
  BitMatrix m(130, 70);
  BitVector col(130);
  for (std::size_t r = 0; r < 130; ++r) col.set(r, rng.bernoulli(0.5));
  m.set_column(64, col);
  EXPECT_EQ(m.column(64), col);
  EXPECT_EQ(m.count(), col.count());
}

TEST(BitMatrix, RowAssignMaskedMergesByMask) {
  BitMatrix m(3, 6);
  m.row(1) = BitVector::from_string("110000");
  m.row_assign_masked(1, BitVector::from_string("001111"),
                      BitVector::from_string("011110"));
  EXPECT_EQ(m.row(1).to_string(), "101110");
  EXPECT_THROW(m.row_assign_masked(3, BitVector(6), BitVector(6)),
               std::out_of_range);
}

TEST(BitMatrix, HammingDistanceAndEquality) {
  BitMatrix a(3, 3), b(3, 3);
  EXPECT_EQ(a, b);
  b.flip(2, 2);
  EXPECT_EQ(a.hamming_distance(b), 1u);
  EXPECT_NE(a, b);
  BitMatrix c(3, 4);
  EXPECT_THROW((void)a.hamming_distance(c), std::invalid_argument);
}

TEST(BitMatrix, ReshapeZeroFillsAndKeepsRowBuffers) {
  BitMatrix mat(4, 130);
  mat.fill(true);
  std::vector<const BitVector::Word*> buffers;
  for (const BitVector& row : mat.rows_span()) buffers.push_back(row.words().data());
  // Narrower, then back to the widest shape: every bit reads zero and no
  // row buffer moved.
  for (const std::size_t cols : {std::size_t{7}, std::size_t{0}, std::size_t{130}}) {
    mat.reshape(4, cols);
    EXPECT_EQ(mat, BitMatrix(4, cols)) << cols;
  }
  for (std::size_t r = 0; r < mat.rows(); ++r) {
    EXPECT_EQ(mat.row(r).words().data(), buffers[r]) << r;
  }
  mat.fill(true);
  mat.reshape(6, 65);  // more rows: the new rows are zero too
  EXPECT_EQ(mat, BitMatrix(6, 65));
  mat.reshape(2, 3);
  EXPECT_EQ(mat, BitMatrix(2, 3));
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

// Absolute pins, recorded before next() moved inline: the relational tests
// around them would pass for any generator that is merely deterministic.
TEST(Rng, StreamsMatchRecordedValues) {
  const auto first8 = [](Rng rng) {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i) out.push_back(rng.next());
    return out;
  };
  EXPECT_EQ(first8(Rng(0)),
            (std::vector<std::uint64_t>{
                0x99ec5f36cb75f2b4u, 0xbf6e1f784956452au, 0x1a5f849d4933e6e0u,
                0x6aa594f1262d2d2cu, 0xbba5ad4a1f842e59u, 0xffef8375d9ebcacau,
                0x6c160deed2f54c98u, 0x8920ad648fc30a3fu}));
  EXPECT_EQ(first8(Rng(42)),
            (std::vector<std::uint64_t>{
                0x15780b2e0c2ec716u, 0x6104d9866d113a7eu, 0xae17533239e499a1u,
                0xecb8ad4703b360a1u, 0xfde6dc7fe2ec5e64u, 0xc50da53101795238u,
                0xb82154855a65ddb2u, 0xd99a2743ebe60087u}));
  EXPECT_EQ(first8(Rng::for_stream(7, 3)),
            (std::vector<std::uint64_t>{
                0xe842320cff3e41e9u, 0x466a993a3eaadde6u, 0xad247904d4a8a392u,
                0x19c53798a23f4385u, 0x012666d999b930afu, 0xa7efec14d21257a1u,
                0xf81647a26d1e5fb4u, 0x37f7c7ddce99d7fau}));
  Rng rng(42);
  ByteWriter w;
  w.bitmatrix(random_bit_matrix(1020, 1020, rng));
  EXPECT_EQ(crc64(w.data()), 0x5e52e57ca34d19f5u);
}

TEST(Rng, FillRandomMatrixDrawsLikeRandomBitMatrix) {
  // A dirty matrix reshaped and refilled in place holds exactly the bits a
  // fresh random_bit_matrix draws, and leaves the stream at the same place.
  BitMatrix mat(3, 500);
  mat.fill(true);
  for (const std::size_t cols : {std::size_t{70}, std::size_t{7}, std::size_t{256}}) {
    Rng a(cols), b(cols);
    mat.reshape(5, cols);
    fill_random(mat, a);
    EXPECT_EQ(mat, random_bit_matrix(5, cols, b)) << cols;
    EXPECT_EQ(a.next(), b.next()) << cols;
  }
}

TEST(Rng, ReseedResetsStream) {
  Rng a(9);
  const std::uint64_t first = a.next();
  a.next();
  a.reseed(9);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_below(37), 37u);
  }
}

TEST(Rng, Uniform01IsInHalfOpenInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliEdgesAreDeterministic) {
  Rng rng(7);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BinomialEdgesAndMean) {
  Rng rng(8);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  double total = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(rng.binomial(100, 0.3));
  }
  EXPECT_NEAR(total / trials, 30.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(10);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-2.0), 0u);
}

TEST(Rng, GeometricEdgesAndSentinel) {
  Rng rng(11);
  EXPECT_EQ(rng.geometric(1.0), 0u);
  EXPECT_EQ(rng.geometric(1.5), 0u);
  // Success impossible: the saturating "beyond any horizon" sentinel.
  EXPECT_EQ(rng.geometric(0.0), ~std::uint64_t{0});
  EXPECT_EQ(rng.geometric(-0.5), ~std::uint64_t{0});
  // Vanishing success probability saturates rather than overflowing.
  EXPECT_EQ(rng.geometric(1e-300), ~std::uint64_t{0});
}

TEST(Rng, GeometricIsDeterministicAndMatchesItsMean) {
  Rng a(12), b(12);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.geometric(0.3), b.geometric(0.3));
  // E[G] = (1-p)/p = 3 at p = 0.25.
  Rng rng(13);
  double total = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(rng.geometric(0.25));
  }
  EXPECT_NEAR(total / trials, 3.0, 0.1);
}

TEST(Rng, JumpIsDeterministicAndDiverges) {
  Rng a(42), b(42);
  a.jump();
  b.jump();
  EXPECT_EQ(a.next(), b.next());  // same jump from same state
  Rng base(42);
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) diverged = a.next() != base.next();
  EXPECT_TRUE(diverged);  // jumped stream is a different substream
}

TEST(Rng, LongJumpDiffersFromJump) {
  Rng a(42), b(42);
  a.jump();
  b.long_jump();
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) diverged = a.next() != b.next();
  EXPECT_TRUE(diverged);
}

TEST(Rng, ForStreamYieldsIndependentDeterministicSubstreams) {
  Rng s0 = Rng::for_stream(123, 0);
  Rng s0_again = Rng::for_stream(123, 0);
  Rng s1 = Rng::for_stream(123, 1);
  Rng other_seed = Rng::for_stream(124, 0);
  EXPECT_EQ(s0.next(), s0_again.next());
  bool differs_by_stream = false, differs_by_seed = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t x = s0.next();
    differs_by_stream = differs_by_stream || x != s1.next();
    differs_by_seed = differs_by_seed || x != other_seed.next();
  }
  EXPECT_TRUE(differs_by_stream);
  EXPECT_TRUE(differs_by_seed);
  // Substream 0 must also differ from the plain seeded stream.
  Rng plain(123);
  Rng sub0 = Rng::for_stream(123, 0);
  bool differs_from_plain = false;
  for (int i = 0; i < 16 && !differs_from_plain; ++i) {
    differs_from_plain = plain.next() != sub0.next();
  }
  EXPECT_TRUE(differs_from_plain);
}

// ------------------------------------------------------------------- modmath

TEST(ModMath, FloorModHandlesNegatives) {
  EXPECT_EQ(floor_mod(7, 5), 2);
  EXPECT_EQ(floor_mod(-1, 5), 4);
  EXPECT_EQ(floor_mod(-5, 5), 0);
  EXPECT_EQ(floor_mod(-6, 5), 4);
}

TEST(ModMath, GcdBasics) {
  EXPECT_EQ(gcd_i64(12, 18), 6);
  EXPECT_EQ(gcd_i64(0, 7), 7);
  EXPECT_EQ(gcd_i64(-12, 18), 6);
}

TEST(ModMath, ModInverseExistsIffCoprime) {
  EXPECT_EQ(mod_inverse(3, 7).value(), 5);  // 3*5 = 15 = 1 mod 7
  EXPECT_FALSE(mod_inverse(6, 9).has_value());
  EXPECT_FALSE(mod_inverse(4, 0).has_value());
}

class InverseOfTwoTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(InverseOfTwoTest, IsTheModularInverseOfTwo) {
  const std::int64_t m = GetParam();
  const std::int64_t inv2 = inverse_of_two(m);
  EXPECT_EQ(floor_mod(2 * inv2, m), 1 % m);
  EXPECT_EQ(inv2, mod_inverse(2, m).value_or(-1));
}

INSTANTIATE_TEST_SUITE_P(OddModuli, InverseOfTwoTest,
                         ::testing::Values(3, 5, 7, 9, 15, 17, 51, 255, 1021));

TEST(ModMath, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
}

// --------------------------------------------------------------------- stats

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_GT(s.ci_halfwidth(), 0.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 4.0, 16.0}), 4.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 0.0}), 0.0);
}

TEST(Stats, WilsonIntervalContainsProportion) {
  const ProportionInterval ci = wilson_interval(30, 100);
  EXPECT_GT(ci.center, 0.25);
  EXPECT_LT(ci.center, 0.35);
  EXPECT_LT(ci.low, 0.30);
  EXPECT_GT(ci.high, 0.30);
  const ProportionInterval empty = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(empty.center, 0.0);
}

TEST(Stats, PercentileNearestRank) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

// --------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(format_pct(0.2623, 2), "26.23%");
  EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04");
}

// ------------------------------------------------- simd rotate primitives

// Bit-by-bit reference rotation: bit j of seg's low m bits lands on
// (j + k) mod m.  Deliberately ignores bits of seg at positions >= m, the
// same hygiene the word kernels must have.
std::uint64_t naive_rotl(std::uint64_t seg, std::size_t k, std::size_t m) {
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if ((seg >> j) & 1u) out |= std::uint64_t{1} << ((j + k) % m);
  }
  return out;
}

// Bit-by-bit reference stride permutation: bit j -> (s * j) mod m.
std::uint64_t naive_stride(std::uint64_t seg, std::size_t s, std::size_t m) {
  std::uint64_t out = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if ((seg >> j) & 1u) out |= std::uint64_t{1} << ((s * j) % m);
  }
  return out;
}

// A mix of adversarial segments for one m: boundary patterns plus random
// words, each optionally poisoned above bit m (rotl/reflect must mask).
std::vector<std::uint64_t> rotate_probe_segments(std::size_t m, Rng& rng) {
  std::vector<std::uint64_t> segs = {
      0,
      simd::low_mask(m),
      std::uint64_t{1},
      std::uint64_t{1} << (m - 1),
      0xAAAAAAAAAAAAAAAAull & simd::low_mask(m),
      ~std::uint64_t{0},  // all 64 bits set: everything above m is stray
  };
  for (int i = 0; i < 24; ++i) segs.push_back(rng.next());
  return segs;
}

// Regression for the pre-fix kernel contract: the old segment rotl
// required k < m and computed `seg >> (m - k)` unmasked, which is
// shift-by-64 UB at m == 64, k == 0-via-wraparound (k == m), and silently
// wrong for stray bits above m.  Exhaustive over k in [0, 2m] including
// k == m at the word-width corners m in {1, 2, 63, 64}.
TEST(SimdRotl, MatchesNaiveExhaustivelyAtWordWidthCorners) {
  Rng rng(0x51D'901ull);
  for (const std::size_t m : {1u, 2u, 63u, 64u}) {
    for (const std::uint64_t seg : rotate_probe_segments(m, rng)) {
      for (std::size_t k = 0; k <= 2 * m; ++k) {
        EXPECT_EQ(simd::rotl(seg, k, m),
                  naive_rotl(seg & simd::low_mask(m), k, m))
            << "m=" << m << " k=" << k << " seg=" << seg;
      }
    }
  }
}

TEST(SimdRotl, RotationByZeroAndByMIsMaskedIdentity) {
  // rotl(seg, m, m) == rotl(seg, 0, m) == seg & low_mask(m); at m == 64
  // this is exactly the shift-by-64 corner.
  for (const std::size_t m : {1u, 7u, 63u, 64u}) {
    const std::uint64_t seg = 0xDEADBEEFCAFEF00Dull;
    EXPECT_EQ(simd::rotl(seg, 0, m), seg & simd::low_mask(m)) << m;
    EXPECT_EQ(simd::rotl(seg, m, m), seg & simd::low_mask(m)) << m;
  }
}

TEST(SimdBitReverse, KnownValuesAndInvolution) {
  EXPECT_EQ(simd::bit_reverse(0), 0u);
  EXPECT_EQ(simd::bit_reverse(~std::uint64_t{0}), ~std::uint64_t{0});
  EXPECT_EQ(simd::bit_reverse(1), std::uint64_t{1} << 63);
  EXPECT_EQ(simd::bit_reverse(std::uint64_t{0b1101}),
            std::uint64_t{0b1011} << 60);
  Rng rng(0x51D'903ull);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t v = rng.next();
    EXPECT_EQ(simd::bit_reverse(simd::bit_reverse(v)), v);
  }
}

TEST(SimdReflect, MatchesCounterDiagonalMapForEveryM) {
  // reflect == bit j -> (m - j) mod m == stride_permute(seg, m-1, m), the
  // O(1) replacement for the codec's per-block counter reordering.
  Rng rng(0x51D'904ull);
  for (std::size_t m = 1; m <= 64; ++m) {
    for (int t = 0; t < 20; ++t) {
      const std::uint64_t seg = rng.next() & simd::low_mask(m);
      EXPECT_EQ(simd::reflect(seg, m), naive_stride(seg, m - 1, m))
          << "m=" << m;
    }
  }
}

TEST(DiagwordStridePermute, FastPathsMatchBitLoop) {
  // s == 1 (identity) and s == m-1 (reflect) short-circuit; other strides
  // still take the bit loop.  All must agree with the naive map.
  Rng rng(0x51D'905ull);
  for (const std::size_t m : {1u, 2u, 3u, 5u, 8u, 15u, 31u, 33u, 63u, 64u}) {
    for (int t = 0; t < 20; ++t) {
      const std::uint64_t seg = rng.next() & simd::low_mask(m);
      for (std::size_t s = 1; s <= std::min<std::size_t>(m, 6); ++s) {
        EXPECT_EQ(ecc::stride_permute(seg, s, m),
                  naive_stride(seg, s, m))
            << "m=" << m << " s=" << s;
      }
      if (m > 1) {
        EXPECT_EQ(ecc::stride_permute(seg, m - 1, m),
                  naive_stride(seg, m - 1, m))
            << "m=" << m;
      }
    }
  }
}

// --------------------------------------------------------------------- units

TEST(Units, ErrorProbabilityBasics) {
  EXPECT_DOUBLE_EQ(error_probability(0.0, 24.0), 0.0);
  EXPECT_DOUBLE_EQ(error_probability(1.0, 0.0), 0.0);
  // Tiny-rate regime: p ~ lambda*T/1e9.
  EXPECT_NEAR(error_probability(1e-3, 24.0), 2.4e-11, 1e-15);
  // Huge rate saturates at 1.
  EXPECT_NEAR(error_probability(1e12, 24.0), 1.0, 1e-9);
}

TEST(Units, FitMttfRoundTrip) {
  const double fit = probability_to_fit(0.5, 24.0);
  EXPECT_NEAR(fit, 0.5 * 1e9 / 24.0, 1e-6);
  EXPECT_NEAR(fit_to_mttf_hours(fit), 1e9 / fit, 1e-9);
  EXPECT_TRUE(std::isinf(fit_to_mttf_hours(0.0)));
}

}  // namespace
}  // namespace pimecc::util
