// Tests for the word-parallel ECC codec engine: differential equivalence of
// ArrayCode / MultiSlopeCodec / HorizontalCode against the bit-serial
// reference implementations (reference_block_code.hpp),
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

// Anchors biased toward 64-bit word boundaries, where util::simd::extract
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

/// The reference codec's verdict on the block anchored at (row0, col0), as
/// ArrayCode::scrub_block reports it.
BlockRepair as_repair(const DecodeResult& result, std::size_t row0,
                      std::size_t col0) {
  BlockRepair repair;
  repair.status = result.status;
  if (result.data_error) {
    repair.data_r = row0 + result.data_error->r;
    repair.data_c = col0 + result.data_error->c;
  }
  if (result.check_error) {
    repair.check_on_leading_axis = result.check_error->on_leading_axis;
    repair.check_index = result.check_error->index;
  }
  return repair;
}

// ------------------------------------------ per-block differential

TEST(CodecDifferential, EncodeMatchesReferenceAtArbitraryAnchors) {
  // A grid more than 448 bits wide: block origins bc * m fall at many
  // offsets within a 64-bit word (every offset for m <= 7), so segments
  // straddle word boundaries at many splits.  Every block column of two
  // random block rows.
  Rng rng(0xC0DEC'01ull);
  for (const std::size_t m : kOddM) {
    const std::size_t bps = std::max<std::size_t>(2, (kWidestM + 193) / m + 1);
    const std::size_t n = m * bps;
    const BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 2; ++trial) {
      const std::size_t br = rng.uniform_below(bps);
      for (std::size_t bc = 0; bc < bps; ++bc) {
        EXPECT_EQ(code.check_bits({br, bc}), ref.encode(data, br * m, bc * m))
            << "m=" << m << " block (" << br << ", " << bc << ")";
      }
    }
  }
}

TEST(CodecDifferential, SyndromeAndClassifyMatchReference) {
  // Arbitrary stored check bits against fixed data: scrub_block's verdict
  // is the reference's classify of the reference syndrome.
  Rng rng(0xC0DEC'02ull);
  for (const std::size_t m : kOddM) {
    const std::size_t bps = 3;
    const std::size_t n = m * bps;
    const BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 40; ++trial) {
      const BlockIndex b{rng.uniform_below(bps), rng.uniform_below(bps)};
      const std::size_t row0 = b.block_row * m;
      const std::size_t col0 = b.block_col * m;
      CheckBits stored(m);
      stored.leading = random_bits(m, rng);
      stored.counter = random_bits(m, rng);
      code.set_check_bits(b, stored);
      const DecodeResult expected =
          ref.classify(ref.compute_syndrome(data, row0, col0, stored));
      BitMatrix scrubbed = data;
      EXPECT_EQ(code.scrub_block(scrubbed, b), as_repair(expected, row0, col0))
          << "m=" << m;
    }
  }
}

TEST(CodecDifferential, CheckAndCorrectMatchesReferenceUnderInjectedErrors) {
  Rng rng(0xC0DEC'03ull);
  for (const std::size_t m : kOddM) {
    const std::size_t n = 2 * m;
    const ReferenceBlockCodec ref(m);
    for (int trial = 0; trial < 60; ++trial) {
      const BitMatrix base = random_matrix(n, n, rng);
      ArrayCode code(n, m);
      code.encode_all(base);
      const BlockIndex b{rng.uniform_below(2), rng.uniform_below(2)};
      const std::size_t row0 = b.block_row * m;
      const std::size_t col0 = b.block_col * m;

      // 0..4 flips across the block's data and both check-bit axes.
      const std::size_t flips = rng.uniform_below(5);
      BitMatrix data_f = base;
      CheckBits stored_r = code.check_bits(b);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t kind = rng.uniform_below(3);
        if (kind == 0) {
          data_f.flip(row0 + rng.uniform_below(m), col0 + rng.uniform_below(m));
        } else {
          const std::size_t d = rng.uniform_below(m);
          code.flip_check_bit(b, kind == 1, d);
          (kind == 1 ? stored_r.leading : stored_r.counter).flip(d);
        }
      }
      BitMatrix data_r = data_f;

      const BlockRepair a = code.scrub_block(data_f, b);
      const DecodeResult r = ref.check_and_correct(data_r, row0, col0, stored_r);
      EXPECT_EQ(a, as_repair(r, row0, col0)) << "m=" << m << " flips=" << flips;
      EXPECT_EQ(data_f, data_r) << "m=" << m;
      EXPECT_EQ(code.check_bits(b), stored_r) << "m=" << m;
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

// Every single data-bit flip and every single check-bit flip of block
// (1, 1) of a 2 x 2 grid must be located and corrected exactly, by both
// engines.
void exhaustive_single_error_sweep(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  const BitMatrix base = random_matrix(2 * m, 2 * m, rng);
  const BlockIndex b{1, 1};
  ArrayCode encoded(2 * m, m);
  encoded.encode_all(base);
  const CheckBits bits = encoded.check_bits(b);
  const ReferenceBlockCodec ref(m);
  ASSERT_EQ(ref.encode(base, m, m), bits) << "m=" << m;

  // Both engines repair one error: each must report `want` and restore
  // the data and the check bits.
  const auto expect_repaired = [&](const BitMatrix& data, const ArrayCode& code,
                                   const CheckBits& stored,
                                   const BlockRepair& want) {
    BitMatrix data_f = data;
    ArrayCode code_f = code;
    EXPECT_EQ(code_f.scrub_block(data_f, b), want);
    EXPECT_EQ(data_f, base);
    EXPECT_EQ(code_f.check_bits(b), bits);
    BitMatrix data_r = data;
    CheckBits stored_r = stored;
    EXPECT_EQ(as_repair(ref.check_and_correct(data_r, m, m, stored_r), m, m),
              want);
    EXPECT_EQ(data_r, base);
    EXPECT_EQ(stored_r, bits);
  };

  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " cell (" << r << ", "
                                      << c << ")");
      BitMatrix data = base;
      data.flip(m + r, m + c);
      BlockRepair want;
      want.status = DecodeStatus::kCorrectedData;
      want.data_r = m + r;
      want.data_c = m + c;
      expect_repaired(data, encoded, bits, want);
    }
  }

  for (const bool on_leading : {true, false}) {
    for (std::size_t d = 0; d < m; ++d) {
      SCOPED_TRACE(testing::Message()
                   << "m=" << m << (on_leading ? " leading " : " counter ") << d);
      ArrayCode code = encoded;
      code.flip_check_bit(b, on_leading, d);
      CheckBits stored = bits;
      (on_leading ? stored.leading : stored.counter).flip(d);
      BlockRepair want;
      want.status = DecodeStatus::kCorrectedCheck;
      want.check_on_leading_axis = on_leading;
      want.check_index = d;
      expect_repaired(base, code, stored, want);
    }
  }
}

TEST(CodecExhaustive, EverySingleErrorCorrectedExactly) {
  for (const std::size_t m : {std::size_t{3}, std::size_t{5}, std::size_t{7}}) {
    exhaustive_single_error_sweep(m, 0xE0'0001ull + m);
  }
}

// m = 3, full enumeration: every data content (2^9) x every 2-bit data
// error pattern (C(9,2) = 36) must be flagged uncorrectable -- never clean,
// never silently "corrected" into a third location.  Two distinct cells of
// an odd-m block can never share both diagonals, so two data errors always
// flag >= 2 diagonals on at least one axis.
TEST(CodecExhaustive, DoubleDataErrorsNeverMiscorrectedSilentlyM3) {
  const std::size_t m = 3;
  const ReferenceBlockCodec ref(m);
  for (std::uint32_t content = 0; content < 512; ++content) {
    BitMatrix base(m, m);
    for (std::size_t bit = 0; bit < 9; ++bit) {
      base.set(bit / m, bit % m, (content >> bit) & 1u);
    }
    ArrayCode code(m, m);
    code.encode_all(base);
    const CheckBits encoded = ref.encode(base, 0, 0);
    ASSERT_EQ(code.check_bits({0, 0}), encoded);
    for (std::size_t a = 0; a < 9; ++a) {
      for (std::size_t b = a + 1; b < 9; ++b) {
        BitMatrix data = base;
        data.flip(a / m, a % m);
        data.flip(b / m, b % m);
        const BitMatrix damaged = data;

        const BlockRepair result = code.scrub_block(data, {0, 0});
        ASSERT_EQ(result.status, DecodeStatus::kDetectedUncorrectable)
            << "content=" << content << " pair (" << a << ", " << b << ")";
        ASSERT_EQ(data, damaged) << "uncorrectable blocks must not be touched";
        ASSERT_EQ(code.check_bits({0, 0}), encoded);

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

TEST(CodecDifferential, RowDeltasMatchReencode) {
  // apply_row_deltas over a run of random delta rows == encoding the data
  // with the run XORed in, for every m including multiword segments: each
  // whole band in turn, then runs that start or end mid-band, cross one or
  // several band boundaries, a single row and all n rows.  The rows sit one
  // word further apart than a row needs, with garbage past bit n and in
  // the gap, which the fold must not read.  A run past row n (a count that
  // would wrap included) or a short stride is rejected before any parity
  // changes.
  Rng rng(0xBA4Dull);
  for (const std::size_t m : kOddM) {
    SCOPED_TRACE(m);
    const std::size_t n = m * std::max<std::size_t>(3, (130 + m - 1) / m);
    const std::size_t bps = n / m;
    const std::size_t words = (n + 63) / 64;
    const std::size_t stride = words + 1;
    BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    const auto apply = [&](std::size_t row0, std::size_t count) {
      std::vector<std::uint64_t> delta(count * stride);
      for (std::size_t i = 0; i < count; ++i) {
        const BitVector row = random_bits(n, rng);
        std::uint64_t* at = delta.data() + i * stride;
        std::copy(row.words().begin(), row.words().end(), at);
        if (n % 64 != 0) at[words - 1] |= rng.next() << (n % 64);
        at[words] = rng.next();
        data.row(row0 + i) ^= row;
      }
      code.apply_row_deltas(row0, count, delta.data(), stride);
    };
    for (std::size_t band = 0; band < bps; ++band) {
      apply(band * m, m);
      ASSERT_TRUE(code.consistent_with(data)) << "band " << band;
    }
    // An offset strictly inside a band, and a random band.
    const auto mid = [&] { return 1 + rng.uniform_below(m - 1); };
    const auto any_band = [&](std::size_t last) {
      return rng.uniform_below(last + 1);
    };
    struct Run {
      const char* what;
      std::size_t row0;
      std::size_t end;
    };
    const std::size_t b_start = any_band(bps - 1);
    const std::size_t b_end = any_band(bps - 1);
    const std::size_t b_one = any_band(bps - 2);
    const std::size_t b_several = any_band(bps - 3);
    const std::size_t several = 2 + rng.uniform_below(bps - 1 - b_several - 1);
    const std::size_t single = rng.uniform_below(n);
    const std::size_t whole = any_band(bps - 1);
    const Run runs[] = {
        {"starts mid-band", b_start * m + mid(), (b_start + 1) * m},
        {"ends mid-band", b_end * m, b_end * m + mid()},
        {"crosses one band boundary", b_one * m + mid(),
         (b_one + 1) * m + mid()},
        {"crosses several band boundaries", b_several * m + mid(),
         (b_several + several) * m + mid()},
        {"single row", single, single + 1},
        {"whole band", whole * m, (whole + 1) * m},
        {"all rows", 0, n},
    };
    for (const Run& run : runs) {
      SCOPED_TRACE(run.what);
      ASSERT_LT(run.row0, run.end);
      ASSERT_LE(run.end, n);
      apply(run.row0, run.end - run.row0);
      ASSERT_TRUE(code.consistent_with(data));
    }
    std::vector<CheckBits> before;
    for (std::size_t b = 0; b < bps * bps; ++b) {
      before.push_back(code.check_bits({b / bps, b % bps}));
    }
    const std::vector<std::uint64_t> ones(n * stride, ~std::uint64_t{0});
    const std::size_t bad[][2] = {{n - 2, 3},
                                  {0, n + 1},
                                  {n, 1},
                                  {1, SIZE_MAX},
                                  {SIZE_MAX, 2},
                                  {n / 2, SIZE_MAX - n / 2 + 1}};
    for (const auto& [row0, count] : bad) {
      EXPECT_THROW(code.apply_row_deltas(row0, count, ones.data(), stride),
                   std::out_of_range)
          << "row0 " << row0 << " count " << count;
    }
    EXPECT_THROW(code.apply_row_deltas(0, 2, ones.data(), words - 1),
                 std::invalid_argument);
    for (std::size_t b = 0; b < bps * bps; ++b) {
      ASSERT_EQ(code.check_bits({b / bps, b % bps}), before[b])
          << "block " << b;
    }
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
  // the reference codec's encode, and a scrub must then repair that very
  // check bit.
  Rng rng(0xC0DEC'0Bull);
  for (const std::size_t m : kOddM) {
    const std::size_t n = 3 * m;
    BitMatrix data = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(data);
    for (const bool leading : {false, true}) {
      const BlockIndex b{rng.uniform_below(3), rng.uniform_below(3)};
      const std::size_t index = rng.uniform_below(m);
      CheckBits expected =
          ReferenceBlockCodec(m).encode(data, b.block_row * m, b.block_col * m);
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
    const ReferenceBlockCodec ref(m);
    const BitMatrix base = random_matrix(n, n, rng);
    ArrayCode code(n, m);
    code.encode_all(base);
    EXPECT_EQ(code.check_bits({1, 2}), ref.encode(base, m, 2 * m));
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
