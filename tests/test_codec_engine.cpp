// Tests for the word-parallel ECC codec engine: differential equivalence of
// BlockCodec / ArrayCode / MultiSlopeCodec / HorizontalCode against the
// bit-serial reference implementations (reference_block_code.hpp),
// exhaustive small-m correction coverage, and the validate-before-mutate
// regressions of the ECC layer -- the codec-level twin of test_engine.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/array_code.hpp"
#include "core/block_code.hpp"
#include "core/geometry.hpp"
#include "fault/injector.hpp"
#include "oracle/check_memory.hpp"
#include "oracle/horizontal_code.hpp"
#include "oracle/multislope_code.hpp"
#include "oracle/reference_block_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/simd.hpp"

namespace pimecc::ecc {
namespace {

using util::BitMatrix;
using util::BitVector;
using util::Rng;

// m > 64 pins the multiword segments of the packed codec -- two words (65,
// 85, 127) and four (255) -- to the reference as well.
constexpr std::size_t kOddM[] = {3, 5, 7, 9, 31, 65, 85, 127, 255};
constexpr std::size_t kWidestM = kOddM[std::size(kOddM) - 1];

BitMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  return util::random_bit_matrix(rows, cols, rng);
}

BitVector random_bits(std::size_t size, Rng& rng) {
  BitVector v(size);
  for (auto& word : v.words_mutable()) word = rng.next();
  v.sanitize();
  return v;
}

// Anchors biased toward 64-bit word boundaries, where diagword::extract
// must stitch a segment from two backing words.
std::size_t random_anchor(Rng& rng, std::size_t limit, std::size_t m) {
  if (rng.bernoulli(0.4)) {
    const std::size_t boundary = 64 * (1 + rng.uniform_below(2));
    const std::size_t wobble = rng.uniform_below(m + 1);
    const std::size_t anchor = boundary > wobble ? boundary - wobble : 0;
    if (anchor <= limit) return anchor;
  }
  return rng.uniform_below(limit + 1);
}

// ----------------------------------------------- BlockCodec differential

TEST(CodecDifferential, EncodeMatchesReferenceAtArbitraryAnchors) {
  Rng rng(0xC0DEC'01ull);
  const BitMatrix data = random_matrix(kWidestM + 97, kWidestM + 193, rng);
  for (const std::size_t m : kOddM) {
    const BlockCodec fast(m);
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t row0 = rng.uniform_below(data.rows() - m + 1);
      const std::size_t col0 = random_anchor(rng, data.cols() - m, m);
      EXPECT_EQ(fast.encode(data, row0, col0), ref.encode(data, row0, col0))
          << "m=" << m << " anchor (" << row0 << ", " << col0 << ")";
    }
  }
}

TEST(CodecDifferential, SyndromeAndClassifyMatchReference) {
  Rng rng(0xC0DEC'02ull);
  const BitMatrix data = random_matrix(kWidestM + 80, kWidestM + 150, rng);
  for (const std::size_t m : kOddM) {
    const BlockCodec fast(m);
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t row0 = rng.uniform_below(data.rows() - m + 1);
      const std::size_t col0 = random_anchor(rng, data.cols() - m, m);
      CheckBits stored(m);
      stored.leading = random_bits(m, rng);
      stored.counter = random_bits(m, rng);
      const Syndrome sf = fast.compute_syndrome(data, row0, col0, stored);
      const Syndrome sr = ref.compute_syndrome(data, row0, col0, stored);
      EXPECT_EQ(sf, sr) << "m=" << m;
      EXPECT_EQ(fast.classify(sf), ref.classify(sr)) << "m=" << m;
    }
  }
}

TEST(CodecDifferential, CheckAndCorrectMatchesReferenceUnderInjectedErrors) {
  Rng rng(0xC0DEC'03ull);
  for (const std::size_t m : kOddM) {
    const BlockCodec fast(m);
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 60; ++trial) {
      BitMatrix base = random_matrix(m + 17, m + 70, rng);
      const std::size_t row0 = rng.uniform_below(base.rows() - m + 1);
      const std::size_t col0 = random_anchor(rng, base.cols() - m, m);
      const CheckBits encoded = ref.encode(base, row0, col0);

      // 0..4 flips across the data window and both check-bit axes.
      const std::size_t flips = rng.uniform_below(5);
      BitMatrix data_f = base;
      CheckBits stored_f = encoded;
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t kind = rng.uniform_below(3);
        if (kind == 0) {
          data_f.flip(row0 + rng.uniform_below(m), col0 + rng.uniform_below(m));
        } else if (kind == 1) {
          stored_f.leading.flip(rng.uniform_below(m));
        } else {
          stored_f.counter.flip(rng.uniform_below(m));
        }
      }
      BitMatrix data_r = data_f;
      CheckBits stored_r = stored_f;

      const DecodeResult a = fast.check_and_correct(data_f, row0, col0, stored_f);
      const DecodeResult b = ref.check_and_correct(data_r, row0, col0, stored_r);
      EXPECT_EQ(a, b) << "m=" << m << " flips=" << flips;
      EXPECT_EQ(data_f, data_r) << "m=" << m;
      EXPECT_EQ(stored_f, stored_r) << "m=" << m;
    }
  }
}

// ------------------------------------------------ ArrayCode differential

TEST(CodecDifferential, EncodeAllMatchesReferenceBlockwise) {
  Rng rng(0xC0DEC'04ull);
  for (const std::size_t m : kOddM) {
    for (const std::size_t bps : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      const std::size_t n = m * bps;
      const BitMatrix data = random_matrix(n, n, rng);
      ArrayCode code(n, m);
      code.encode_all(data);
      const ReferenceBlockCodec ref(m);
      for (std::size_t br = 0; br < bps; ++br) {
        for (std::size_t bc = 0; bc < bps; ++bc) {
          EXPECT_EQ(code.check_bits({br, bc}), ref.encode(data, br * m, bc * m))
              << "m=" << m << " block (" << br << ", " << bc << ")";
        }
      }
      EXPECT_TRUE(code.consistent_with(data));
    }
  }
}

TEST(CodecDifferential, ScrubMatchesReferenceBlockwise) {
  Rng rng(0xC0DEC'05ull);
  for (const std::size_t m : kOddM) {
    const std::size_t bps = 4;
    const std::size_t n = m * bps;
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 20; ++trial) {
      const BitMatrix base = random_matrix(n, n, rng);
      ArrayCode code(n, m);
      code.encode_all(base);
      std::vector<CheckBits> stored_ref;
      stored_ref.reserve(bps * bps);
      for (std::size_t br = 0; br < bps; ++br) {
        for (std::size_t bc = 0; bc < bps; ++bc) {
          stored_ref.push_back(code.check_bits({br, bc}));
        }
      }

      // Inject identical random damage into both representations.
      BitMatrix data_f = base;
      const std::size_t flips = rng.uniform_below(2 * bps * bps);
      for (std::size_t i = 0; i < flips; ++i) {
        if (rng.bernoulli(0.7)) {
          data_f.flip(rng.uniform_below(n), rng.uniform_below(n));
        } else {
          const std::size_t block = rng.uniform_below(bps * bps);
          const std::size_t diag = rng.uniform_below(m);
          const bool leading = rng.bernoulli(0.5);
          (leading ? stored_ref[block].leading : stored_ref[block].counter)
              .flip(diag);
          code.flip_check_bit({block / bps, block % bps}, leading, diag);
        }
      }
      BitMatrix data_r = data_f;

      const ScrubReport fast_report = code.scrub(data_f);
      const ScrubReport ref_report = reference_scrub(ref, data_r, stored_ref, bps);
      EXPECT_EQ(fast_report, ref_report) << "m=" << m << " trial " << trial;
      EXPECT_EQ(data_f, data_r) << "m=" << m << " trial " << trial;
      for (std::size_t br = 0; br < bps; ++br) {
        for (std::size_t bc = 0; bc < bps; ++bc) {
          EXPECT_EQ(code.check_bits({br, bc}), stored_ref[br * bps + bc])
              << "m=" << m << " block (" << br << ", " << bc << ")";
        }
      }
    }
  }
}

TEST(CodecDifferential, WriteBatchesMatchReferencePerWriteUpdates) {
  Rng rng(0xC0DEC'06ull);
  for (const std::size_t m : kOddM) {
    const std::size_t bps = 3;
    const std::size_t n = m * bps;
    BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    const ReferenceBlockCodec ref(m);
    std::vector<CheckBits> stored_ref;
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        stored_ref.push_back(code.check_bits({br, bc}));
      }
    }

    for (int batch = 0; batch < 20; ++batch) {
      std::vector<CellWrite> writes;
      const std::size_t count = 1 + rng.uniform_below(n);
      for (std::size_t i = 0; i < count; ++i) {
        CellWrite w;
        w.r = rng.uniform_below(n);
        w.c = rng.uniform_below(n);
        w.old_value = data.get(w.r, w.c);
        w.new_value = rng.bernoulli(0.5);
        data.set(w.r, w.c, w.new_value);
        writes.push_back(w);
      }
      code.apply_writes(writes);
      for (const CellWrite& w : writes) {
        const BlockIndex b = code.block_of(w.r, w.c);
        ref.update_for_write(stored_ref[b.block_row * bps + b.block_col],
                             w.r % m, w.c % m, w.old_value, w.new_value);
      }
      for (std::size_t br = 0; br < bps; ++br) {
        for (std::size_t bc = 0; bc < bps; ++bc) {
          ASSERT_EQ(code.check_bits({br, bc}), stored_ref[br * bps + bc])
              << "m=" << m << " batch " << batch;
        }
      }
    }
    EXPECT_TRUE(code.consistent_with(data)) << "m=" << m;
  }
}

// --------------------------------- MultiSlopeCodec / HorizontalCode

TEST(CodecDifferential, MultislopeEncodeMatchesReference) {
  Rng rng(0xC0DEC'07ull);
  struct Config {
    std::size_t m;
    std::vector<std::size_t> slopes;
  };
  const Config configs[] = {
      {3, {1, 2}},          {5, {1, 2, 3, 4}}, {7, {1, 2, 5, 6}},
      {9, {1, 2, 7, 8}},    {31, {1, 2, 29, 30}},
      {8, {1, 3, 5, 7}},   // even m: the slope machinery has no odd-m premise
      {65, {1, 2, 63, 64}},  // > 64: the oracle's bit-serial branch
  };
  for (const Config& config : configs) {
    const MultiSlopeCodec codec(config.m, config.slopes);
    const BitMatrix data = random_matrix(config.m + 9, config.m + 80, rng);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t row0 = rng.uniform_below(data.rows() - config.m + 1);
      const std::size_t col0 = random_anchor(rng, data.cols() - config.m, config.m);
      EXPECT_EQ(codec.encode(data, row0, col0),
                reference_multislope_encode(codec, data, row0, col0))
          << "m=" << config.m << " anchor (" << row0 << ", " << col0 << ")";
    }
  }
}

TEST(CodecDifferential, HorizontalParitiesMatchReference) {
  Rng rng(0xC0DEC'08ull);
  const std::size_t n = 96;
  const BitMatrix data = random_matrix(n, n, rng);
  for (const std::size_t group :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{32}, n}) {
    HorizontalCode code(n, group);
    code.encode_all(data);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t g = 0; g < n / group; ++g) {
        ASSERT_EQ(code.parity(r, g),
                  reference_horizontal_group_parity(data, r, g, group))
            << "group_size=" << group << " (" << r << ", " << g << ")";
      }
    }
    EXPECT_TRUE(code.consistent_with(data));
    BitMatrix damaged = data;
    damaged.flip(n / 2, n - 1);
    EXPECT_FALSE(code.consistent_with(damaged));
    EXPECT_TRUE(code.group_has_error(damaged, n / 2, (n - 1) / group));
  }
}

// --------------------------------------------- exhaustive small-m sweeps

// Every single data-bit flip and every single check-bit flip must be
// located and corrected exactly, by both engines.
template <typename Codec>
void exhaustive_single_error_sweep(const Codec& codec, std::size_t m,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const BitMatrix base = random_matrix(m + 3, m + 5, rng);
  const std::size_t row0 = 2;
  const std::size_t col0 = 3;
  const CheckBits encoded = codec.encode(base, row0, col0);

  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      BitMatrix data = base;
      CheckBits stored = encoded;
      data.flip(row0 + r, col0 + c);
      const DecodeResult result = codec.check_and_correct(data, row0, col0, stored);
      ASSERT_EQ(result.status, DecodeStatus::kCorrectedData)
          << "m=" << m << " cell (" << r << ", " << c << ")";
      ASSERT_TRUE(result.data_error.has_value());
      EXPECT_EQ(*result.data_error, (Cell{r, c}));
      EXPECT_EQ(data, base) << "correction must restore the data bit";
      EXPECT_EQ(stored, encoded) << "check bits must be untouched";
    }
  }

  for (const bool on_leading : {true, false}) {
    for (std::size_t d = 0; d < m; ++d) {
      BitMatrix data = base;
      CheckBits stored = encoded;
      (on_leading ? stored.leading : stored.counter).flip(d);
      const DecodeResult result = codec.check_and_correct(data, row0, col0, stored);
      ASSERT_EQ(result.status, DecodeStatus::kCorrectedCheck)
          << "m=" << m << (on_leading ? " leading " : " counter ") << d;
      ASSERT_TRUE(result.check_error.has_value());
      EXPECT_EQ(*result.check_error, (CheckBitLocation{on_leading, d}));
      EXPECT_EQ(data, base) << "data must be untouched";
      EXPECT_EQ(stored, encoded) << "correction must restore the check bit";
    }
  }
}

TEST(CodecExhaustive, EverySingleErrorCorrectedExactly) {
  for (const std::size_t m : {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    exhaustive_single_error_sweep(BlockCodec(m), m, 0xE0'0001ull + m);
    exhaustive_single_error_sweep(ReferenceBlockCodec(m), m, 0xE0'0001ull + m);
  }
}

// m = 3, full enumeration: every data content (2^9) x every 2-bit data
// error pattern (C(9,2) = 36) must be flagged uncorrectable -- never clean,
// never silently "corrected" into a third location.  Two distinct cells of
// an odd-m block can never share both diagonals, so two data errors always
// flag >= 2 diagonals on at least one axis.
TEST(CodecExhaustive, DoubleDataErrorsNeverMiscorrectedSilentlyM3) {
  const std::size_t m = 3;
  const BlockCodec fast(m);
  const ReferenceBlockCodec ref(m);
  for (std::uint32_t content = 0; content < 512; ++content) {
    BitMatrix base(m, m);
    for (std::size_t bit = 0; bit < 9; ++bit) {
      base.set(bit / m, bit % m, (content >> bit) & 1u);
    }
    const CheckBits encoded = ref.encode(base, 0, 0);
    for (std::size_t a = 0; a < 9; ++a) {
      for (std::size_t b = a + 1; b < 9; ++b) {
        BitMatrix data = base;
        data.flip(a / m, a % m);
        data.flip(b / m, b % m);
        const BitMatrix damaged = data;

        CheckBits stored = encoded;
        const DecodeResult result = fast.check_and_correct(data, 0, 0, stored);
        ASSERT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
            << "content=" << content << " pair (" << a << ", " << b << ")";
        ASSERT_EQ(data, damaged) << "uncorrectable blocks must not be touched";
        ASSERT_EQ(stored, encoded);

        CheckBits stored_ref = encoded;
        const DecodeResult ref_result =
            ref.check_and_correct(data, 0, 0, stored_ref);
        ASSERT_EQ(ref_result.status, DecodeStatus::kDetectedUncorrectable);
        ASSERT_EQ(data, damaged);
      }
    }
  }
}

// ------------------------------------- validate-before-mutate regressions

TEST(CodecDifferential, BandDeltaMatchesReencode) {
  // apply_band_delta over a random row-major slab == encoding the data with
  // the slab XORed into that band, for every m including multiword
  // segments; a bad band is rejected before any parity changes.
  Rng rng(0xBA4Dull);
  for (const std::size_t m : kOddM) {
    SCOPED_TRACE(m);
    const std::size_t n = m * std::max<std::size_t>(3, (130 + m - 1) / m);
    BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    for (std::size_t band = 0; band < n / m; ++band) {
      std::vector<BitVector> slab;
      std::vector<const std::uint64_t*> rows;
      for (std::size_t r = 0; r < m; ++r) slab.push_back(random_bits(n, rng));
      for (std::size_t r = 0; r < m; ++r) {
        rows.push_back(slab[r].words().data());
        data.row(band * m + r) ^= slab[r];
      }
      code.apply_band_delta(band, rows.data());
      ASSERT_TRUE(code.consistent_with(data)) << "band " << band;
    }
    const std::vector<const std::uint64_t*> none(m, nullptr);
    EXPECT_THROW(code.apply_band_delta(n / m, none.data()), std::out_of_range);
    EXPECT_TRUE(code.consistent_with(data));
  }
}

TEST(CodecValidation, ArrayCodeApplyWritesIsAtomicOnBadBatch) {
  const std::size_t n = 9, m = 3;
  Rng rng(0xC0DEC'09ull);
  const BitMatrix data = random_matrix(n, n, rng);
  ArrayCode code(n, m);
  code.encode_all(data);
  // A valid parity-changing write followed by an out-of-range one: the
  // batch must be rejected wholesale, leaving every check bit untouched.
  std::vector<CellWrite> batch;
  batch.push_back({0, 0, data.get(0, 0), !data.get(0, 0)});
  batch.push_back({n, 0, false, true});
  EXPECT_THROW(code.apply_writes(batch), std::out_of_range);
  EXPECT_TRUE(code.consistent_with(data));
}

TEST(CodecStore, FlipCheckBitMatchesTheCheckBitsItUsedToFlip) {
  // The packed store keeps counter parities pre-reflection; flip_check_bit
  // on either axis must flip exactly the diagonal that flipping the same
  // index of a CheckBits family flips (the pre-store API), checked against
  // BlockCodec::encode, and a scrub must then repair that very check bit.
  Rng rng(0xC0DEC'0Bull);
  for (const std::size_t m : kOddM) {
    const std::size_t n = 3 * m;
    BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    for (const bool leading : {false, true}) {
      const BlockIndex b{rng.uniform_below(3), rng.uniform_below(3)};
      const std::size_t index = rng.uniform_below(m);
      CheckBits expected = code.codec().encode(data, b.block_row * m,
                                               b.block_col * m);
      ASSERT_EQ(code.check_bits(b), expected);
      (leading ? expected.leading : expected.counter).flip(index);
      code.flip_check_bit(b, leading, index);
      EXPECT_EQ(code.check_bits(b), expected) << "m=" << m;

      const BlockRepair repair = code.scrub_block(data, b);
      EXPECT_EQ(repair.status, DecodeStatus::kCorrectedCheck) << "m=" << m;
      EXPECT_EQ(repair.check_on_leading_axis, leading) << "m=" << m;
      EXPECT_EQ(repair.check_index, index) << "m=" << m;
      EXPECT_TRUE(code.consistent_with(data)) << "m=" << m;

      code.flip_check_bit(b, leading, index);
      const ScrubReport report = code.scrub(data);
      EXPECT_EQ(report.corrected_check, 1u) << "m=" << m;
      EXPECT_EQ(report.clean, code.block_count() - 1) << "m=" << m;
      EXPECT_TRUE(code.consistent_with(data)) << "m=" << m;
    }
    EXPECT_THROW(code.flip_check_bit({3, 0}, true, 0), std::out_of_range);
    EXPECT_THROW(code.flip_check_bit({0, 0}, false, m), std::out_of_range);
  }
}

TEST(CodecStore, SetCheckBitsRoundTripsAndValidates) {
  Rng rng(0xC0DEC'0Cull);
  for (const std::size_t m : kOddM) {
    ArrayCode code(2 * m, m);
    CheckBits bits(m);
    bits.leading = random_bits(m, rng);
    bits.counter = random_bits(m, rng);
    code.set_check_bits({1, 0}, bits);
    EXPECT_EQ(code.check_bits({1, 0}), bits) << "m=" << m;
    EXPECT_EQ(code.check_bits({0, 0}), CheckBits(m)) << "m=" << m;
    EXPECT_EQ(code.check_bits({1, 1}), CheckBits(m)) << "m=" << m;
    EXPECT_THROW(code.set_check_bits({0, 2}, bits), std::out_of_range);
    EXPECT_THROW(code.set_check_bits({0, 0}, CheckBits(m + 2)),
                 std::invalid_argument);
    EXPECT_THROW((void)code.check_bits({2, 0}), std::out_of_range);
  }
}

TEST(CodecValidation, HorizontalApplyWritesIsAtomicOnBadBatch) {
  const std::size_t n = 16;
  Rng rng(0xC0DEC'0Aull);
  const BitMatrix data = random_matrix(n, n, rng);
  HorizontalCode code(n, 8);
  code.encode_all(data);
  std::vector<CellWrite> batch;
  batch.push_back({1, 1, data.get(1, 1), !data.get(1, 1)});
  batch.push_back({1, n, false, true});
  EXPECT_THROW(code.apply_writes(batch), std::out_of_range);
  EXPECT_TRUE(code.consistent_with(data));
}

TEST(CodecValidation, CheckMemoryRejectsOutOfRangeBlocks) {
  arch::ArchParams params;
  params.n = 15;
  params.m = 5;
  arch::CheckMemory cmem(params);
  const std::size_t bps = params.blocks_per_side();
  const ecc::BlockIndex bad_row{bps, 0};
  const ecc::BlockIndex bad_col{0, bps};
  // set/flip reach an unchecked poke, so the bounds must be enforced here
  // -- before any crossbar cell is touched.
  EXPECT_THROW(cmem.set(arch::Axis::kLeading, 0, bad_row, true), std::out_of_range);
  EXPECT_THROW(cmem.set(arch::Axis::kCounter, 0, bad_col, true), std::out_of_range);
  EXPECT_THROW((void)cmem.flip(arch::Axis::kLeading, 0, bad_row), std::out_of_range);
  EXPECT_THROW((void)cmem.get(arch::Axis::kCounter, 0, bad_row), std::out_of_range);
  EXPECT_THROW((void)cmem.gather_block(bad_col), std::out_of_range);
  // In-range accesses still work after the rejected calls.
  cmem.set(arch::Axis::kLeading, 0, {bps - 1, bps - 1}, true);
  EXPECT_TRUE(cmem.get(arch::Axis::kLeading, 0, {bps - 1, bps - 1}));
}

// ------------------------------------------------------- smoke subset
//
// Tiny configs registered under the `smoke` ctest label (see
// tests/CMakeLists.txt): every CI invocation pins the fast codec to the
// reference end to end in a few milliseconds.

TEST(CodecEngineSmoke, TinyDifferentialSweep) {
  Rng rng(0xC0DEC'0Bull);
  for (const std::size_t m : {std::size_t{3}, std::size_t{5}}) {
    const std::size_t n = 4 * m;
    const BlockCodec fast(m);
    const ReferenceBlockCodec ref(m);
    const BitMatrix base = random_matrix(n, n, rng);
    EXPECT_EQ(fast.encode(base, m, 2 * m), ref.encode(base, m, 2 * m));

    ArrayCode code(n, m);
    code.encode_all(base);
    EXPECT_TRUE(code.consistent_with(base));

    BitMatrix data = base;
    data.flip(1, 1);
    data.flip(n - 1, n - 2);
    BitMatrix data_r = data;
    std::vector<CheckBits> stored_ref;
    for (std::size_t br = 0; br < 4; ++br) {
      for (std::size_t bc = 0; bc < 4; ++bc) {
        stored_ref.push_back(code.check_bits({br, bc}));
      }
    }
    const ScrubReport fast_report = code.scrub(data);
    const ScrubReport ref_report = reference_scrub(ref, data_r, stored_ref, 4);
    EXPECT_EQ(fast_report, ref_report);
    EXPECT_EQ(fast_report.corrected_data, 2u);
    EXPECT_EQ(data, base);
    EXPECT_EQ(data, data_r);
  }
}

// ------------------------------------------------------ absolute pins

/// Golden digests of the whole-array code: the CRC-64 of every block's
/// check_bits() after encode_all, and the CRC-64 of the check bits and the
/// data plus every ScrubReport after scrubs of a seeded injection.  The
/// differential suites above are relational (fast == reference); these
/// constants were recorded once and catch a change that moves both sides,
/// or any dispatch level, the same way.
struct ArrayCodePin {
  std::size_t n;
  std::size_t m;
  std::uint64_t encode_crc;
  std::uint64_t scrub_crc;
  ScrubReport scrub;       ///< whole-array scrub of the first injection
  ScrubReport row_band;    ///< scrub_band(row, last band) of the second
  ScrubReport col_band;    ///< scrub_band(column, band 0) of the second
};

void PrintTo(const ArrayCodePin& pin, std::ostream* os) {
  *os << "n=" << pin.n << " m=" << pin.m;
}

void put_check_bits(util::ByteWriter& w, const ArrayCode& code) {
  for (std::size_t br = 0; br < code.blocks_per_side(); ++br) {
    for (std::size_t bc = 0; bc < code.blocks_per_side(); ++bc) {
      const CheckBits bits = code.check_bits({br, bc});
      for (const std::uint64_t word : bits.leading.words()) w.u64(word);
      for (const std::uint64_t word : bits.counter.words()) w.u64(word);
    }
  }
}

void print_report(const ScrubReport& r) {
  std::printf("{%zu, %zu, %zu, %zu, %zu}", r.blocks_checked, r.clean,
              r.corrected_data, r.corrected_check, r.uncorrectable);
}

class ArrayCodePinTest : public ::testing::TestWithParam<ArrayCodePin> {};

TEST_P(ArrayCodePinTest, DigestsMatchAtEveryDispatchLevel) {
  const ArrayCodePin& pin = GetParam();
  const util::simd::Level saved = util::simd::active_level();
  for (const util::simd::Level level : util::simd::available_levels()) {
    SCOPED_TRACE(util::simd::to_string(level));
    util::simd::set_level(level);
    Rng rng(0xA11'0000ull + pin.n * 131 + pin.m);
    BitMatrix data = random_matrix(pin.n, pin.n, rng);
    ArrayCode code(pin.n, pin.m);
    code.encode_all(data);
    util::ByteWriter enc;
    put_check_bits(enc, code);
    const std::uint64_t encode_crc = util::crc64(enc.data());

    // Enough flips that the scrubs see clean, corrected-data,
    // corrected-check and uncorrectable blocks alike.
    const std::size_t flips = std::max<std::size_t>(3, code.block_count() / 3);
    (void)fault::inject_flips_everywhere(rng, data, code, flips);
    const ScrubReport scrub = code.scrub(data);
    (void)fault::inject_flips_everywhere(rng, data, code, flips);
    const std::size_t last = code.blocks_per_side() - 1;
    const ScrubReport row_band = code.scrub_band(data, true, last);
    const ScrubReport col_band = code.scrub_band(data, false, 0);
    util::ByteWriter after;
    put_check_bits(after, code);
    for (const BitVector& row : data.rows_span()) {
      for (const std::uint64_t word : row.words()) after.u64(word);
    }
    const std::uint64_t scrub_crc = util::crc64(after.data());

    EXPECT_EQ(encode_crc, pin.encode_crc);
    EXPECT_EQ(scrub_crc, pin.scrub_crc);
    EXPECT_EQ(scrub, pin.scrub);
    EXPECT_EQ(row_band, pin.row_band);
    EXPECT_EQ(col_band, pin.col_band);
    if (encode_crc != pin.encode_crc || scrub_crc != pin.scrub_crc ||
        !(scrub == pin.scrub) || !(row_band == pin.row_band) ||
        !(col_band == pin.col_band)) {
      std::printf("  ArrayCodePin{%zu, %zu, 0x%016" PRIx64 "u, 0x%016" PRIx64
                  "u, ",
                  pin.n, pin.m, encode_crc, scrub_crc);
      print_report(scrub);
      std::printf(", ");
      print_report(row_band);
      std::printf(", ");
      print_report(col_band);
      std::printf("},\n");
    }
  }
  util::simd::set_level(saved);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArrayCodePinTest,
    ::testing::Values(
        ArrayCodePin{1020, 15, 0x84a16feb088b349du, 0x8d7cf9d0b79c18a4u,
                     {4624, 3314, 969, 147, 194}, {68, 51, 9, 1, 7},
                     {68, 47, 14, 1, 6}},
        ArrayCodePin{510, 15, 0x23f61934b09820aau, 0xc8e25795704d1d99u,
                     {1156, 832, 239, 30, 55}, {34, 23, 7, 0, 4},
                     {34, 24, 7, 1, 2}},
        ArrayCodePin{60, 15, 0x7895b058276606d2u, 0x578730903424d036u,
                     {16, 12, 2, 1, 1}, {4, 3, 1, 0, 0}, {4, 2, 1, 0, 1}},
        ArrayCodePin{93, 31, 0x9754b1f05c7061a0u, 0x854eae05d1590eb3u,
                     {9, 7, 1, 0, 1}, {3, 2, 1, 0, 0}, {3, 3, 0, 0, 0}},
        ArrayCodePin{1008, 63, 0x9a86a75257e112afu, 0x53f9e642e8ad82d4u,
                     {256, 180, 63, 4, 9}, {16, 8, 5, 0, 3},
                     {16, 12, 4, 0, 0}},
        ArrayCodePin{130, 65, 0x1913276984af07fbu, 0xb3e47a5533fb43e4u,
                     {4, 2, 1, 0, 1}, {2, 1, 1, 0, 0}, {2, 1, 1, 0, 0}},
        ArrayCodePin{1020, 85, 0x7368c12e06847ab4u, 0x903dcb1bc249d9e2u,
                     {144, 102, 34, 2, 6}, {12, 7, 2, 0, 3},
                     {12, 10, 1, 0, 1}},
        ArrayCodePin{1020, 255, 0x44147af71facace0u, 0x0b41b4e032e7c0e8u,
                     {16, 11, 5, 0, 0}, {4, 3, 0, 0, 1}, {4, 3, 0, 0, 1}}),
    [](const ::testing::TestParamInfo<ArrayCodePin>& info) {
      return "n" + std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m);
    });

TEST(ArrayCodePin, EvenBlockSizeIsRejected) {
  // The diagonal code needs odd m (paper footnote 1), so the kernels'
  // m = 64 case is pinned by SimdKernels, not by an ArrayCode digest.
  EXPECT_THROW(ArrayCode(960, 64), std::invalid_argument);
}

}  // namespace
}  // namespace pimecc::ecc
