// Tests for the runtime SIMD dispatch layer (util/simd): level enumeration
// and switching, kernel-vs-scalar differential equivalence at every level
// the CPU offers, the codec/crossbar engines pinned across levels and to
// their bit-serial references, tail-word poison immunity, and the
// single-word (m = 63/64) block paths the stride-permutation bypass enables.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/array_code.hpp"
#include "core/geometry.hpp"
#include "oracle/multislope_code.hpp"
#include "oracle/reference_block_code.hpp"
#include "oracle/reference_crossbar.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc {
namespace {

namespace simd = util::simd;
using util::BitMatrix;
using util::BitVector;
using util::Rng;

/// Restores the dispatch level the process had before the test, whatever a
/// test body switched to.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::active_level()) {}
  ~LevelGuard() { simd::set_level(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level saved_;
};

// ------------------------------------------------------------- dispatch

TEST(SimdDispatch, LevelEnumerationIsConsistent) {
  const std::vector<simd::Level> levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  EXPECT_EQ(levels.back(), simd::detected_level());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<unsigned>(levels[i - 1]),
              static_cast<unsigned>(levels[i]));
  }
  bool active_listed = false;
  for (const simd::Level l : levels) {
    if (l == simd::active_level()) active_listed = true;
  }
  EXPECT_TRUE(active_listed);
}

TEST(SimdDispatch, EveryAvailableLevelHasACompleteKernelTable) {
  for (const simd::Level l : simd::available_levels()) {
    const simd::KernelTable& t = simd::kernels_for(l);
    EXPECT_NE(t.band_accumulate, nullptr) << simd::to_string(l);
    EXPECT_NE(t.block_peel, nullptr) << simd::to_string(l);
    EXPECT_NE(t.nor_column_pass, nullptr) << simd::to_string(l);
    EXPECT_NE(t.transpose64, nullptr) << simd::to_string(l);
  }
}

TEST(SimdDispatch, SetLevelRoundTripsAndRejectsUnsupported) {
  LevelGuard guard;
  for (const simd::Level l : simd::available_levels()) {
    simd::set_level(l);
    EXPECT_EQ(simd::active_level(), l);
  }
  if (simd::detected_level() != simd::Level::kAvx512) {
    const auto next = static_cast<simd::Level>(
        static_cast<unsigned>(simd::detected_level()) + 1);
    EXPECT_THROW(simd::set_level(next), std::invalid_argument);
    EXPECT_THROW((void)simd::kernels_for(next), std::invalid_argument);
  }
}

TEST(SimdDispatch, LevelNamesAreDistinct) {
  EXPECT_STREQ(simd::to_string(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Level::kAvx512), "avx512");
}

// -------------------------------------------------- raw kernel differential

/// Rows with an extra backing word whose content is deliberate garbage --
/// within reach of a sloppy wide load, so any kernel that forgets to mask
/// diverges from scalar here.
struct DirtyRows {
  std::vector<std::vector<std::uint64_t>> storage;
  std::vector<const std::uint64_t*> ptrs;

  DirtyRows(std::size_t m, std::size_t n_bits, Rng& rng) {
    const std::size_t n_words = (n_bits + 63) / 64;
    storage.assign(m, {});
    ptrs.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      storage[r].resize(n_words + 1);
      for (auto& w : storage[r]) w = rng.next();
      ptrs[r] = storage[r].data();
    }
  }
};

// Single-word segments, and segments of two (65, 85, 127), three (129) and
// four (255) words.
constexpr std::size_t kKernelMs[] = {1, 3, 5, 7, 31, 33, 63, 64,
                                     65, 85, 127, 129, 255};
constexpr std::size_t kWideMs[] = {65, 85, 127, 129, 255};

bool get_bit(const std::uint64_t* words, std::size_t p) {
  return ((words[p / 64] >> (p % 64)) & 1u) != 0;
}

/// The per-block rotation the packed kernels replaced, bit by bit: the
/// m-bit segment at row_bit0 of `row`, rotated left by k, XORed into the
/// segment at acc_bit0 of `acc` (bit o -> (o + k) mod m).
void oracle_rotate(const std::uint64_t* row, std::size_t row_bit0,
                   std::size_t m, std::size_t k, std::uint64_t* acc,
                   std::size_t acc_bit0) {
  for (std::size_t o = 0; o < m; ++o) {
    if (get_bit(row, row_bit0 + o)) {
      const std::size_t p = acc_bit0 + (o + k) % m;
      acc[p / 64] ^= std::uint64_t{1} << (p % 64);
    }
  }
}

/// Random words with garbage above `bits` in the last word; exactly
/// ceil(bits / 64) words, so a kernel reading past the row trips ASan.
std::vector<std::uint64_t> dirty_words(std::size_t bits, Rng& rng) {
  std::vector<std::uint64_t> words((bits + 63) / 64);
  for (auto& w : words) w = rng.next();
  return words;
}

TEST(SimdKernels, BandAccumulateMatchesScalarAtEveryLevel) {
  // Every single-word m and the multiword ones, segment counts around
  // every lane width, whole bands and single-row steps (apply_line_delta's
  // use), rows with tail garbage and exactly-sized allocations; each output
  // checked against the per-block rotation bit by bit, with the bits past
  // the last segment required zero.
  Rng rng(0x51D'1001ull);
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 64; ++m) ms.push_back(m);
  ms.insert(ms.end(), std::begin(kWideMs), std::end(kWideMs));
  for (const std::size_t m : ms) {
    for (const std::size_t bps : {1u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 68u}) {
      const std::size_t bits = bps * m;
      const std::vector<std::uint64_t> masks = simd::segment_masks(m, bps);
      const simd::BandShape shape{m, (bits + 63) / 64, masks.data()};
      ASSERT_EQ(masks.size(), m * shape.words);
      const std::size_t one_row = rng.uniform_below(m);
      for (const auto& [r0, count] :
           {std::pair<std::size_t, std::size_t>{0, m}, {one_row, 1}}) {
        std::vector<std::vector<std::uint64_t>> rows;
        std::vector<const std::uint64_t*> ptrs;
        for (std::size_t i = 0; i < count; ++i) {
          rows.push_back(dirty_words(bits, rng));
        }
        for (const auto& row : rows) ptrs.push_back(row.data());
        const std::vector<std::uint64_t> lead0 = dirty_words(bits, rng);
        const std::vector<std::uint64_t> cnt0 = dirty_words(bits, rng);
        // The accumulators' segment bits, their tail garbage cleared.
        std::vector<std::uint64_t> want_lead(shape.words, 0);
        std::vector<std::uint64_t> want_cnt(shape.words, 0);
        for (std::size_t p = 0; p < bits; ++p) {
          want_lead[p / 64] |= std::uint64_t{get_bit(lead0.data(), p)} << (p % 64);
          want_cnt[p / 64] |= std::uint64_t{get_bit(cnt0.data(), p)} << (p % 64);
        }
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t r = r0 + i;
          for (std::size_t bc = 0; bc < bps; ++bc) {
            oracle_rotate(rows[i].data(), bc * m, m, r, want_lead.data(), bc * m);
            oracle_rotate(rows[i].data(), bc * m, m, (m - r) % m,
                          want_cnt.data(), bc * m);
          }
        }
        for (const simd::Level l : simd::available_levels()) {
          std::vector<std::uint64_t> lead = lead0;
          std::vector<std::uint64_t> cnt = cnt0;
          simd::kernels_for(l).band_accumulate(shape, ptrs.data(), r0, count,
                                               lead.data(), cnt.data());
          ASSERT_EQ(lead, want_lead)
              << simd::to_string(l) << " m=" << m << " bps=" << bps
              << " r0=" << r0 << " count=" << count;
          ASSERT_EQ(cnt, want_cnt)
              << simd::to_string(l) << " m=" << m << " bps=" << bps
              << " r0=" << r0 << " count=" << count;
        }
      }
    }
  }
}

TEST(SimdKernels, SegmentMasksMarkOffsetsAtOrAboveK) {
  for (const std::size_t m : kKernelMs) {
    for (const std::size_t bps : {1u, 5u, 17u}) {
      const std::vector<std::uint64_t> masks = simd::segment_masks(m, bps);
      const std::size_t words = (bps * m + 63) / 64;
      ASSERT_EQ(masks.size(), m * words);
      for (std::size_t k = 0; k < m; ++k) {
        for (std::size_t p = 0; p < words * 64; ++p) {
          const bool set = (masks[k * words + p / 64] >> (p % 64)) & 1u;
          ASSERT_EQ(set, p < bps * m && p % m >= k)
              << "m=" << m << " bps=" << bps << " k=" << k << " bit " << p;
        }
      }
    }
  }
  EXPECT_THROW((void)simd::segment_masks(0, 4), std::invalid_argument);
}

TEST(SimdKernels, BlockPeelMatchesScalarAtEveryLevel) {
  Rng rng(0x51D'1002ull);
  for (const std::size_t m : kKernelMs) {
    // Anchors swept across word boundaries: every (bit0 % 64, straddle)
    // combination the engines can produce.
    const std::size_t n_bits = 4 * 64 + m;
    const std::size_t words = (m + 63) / 64;
    const DirtyRows rows(m, n_bits, rng);
    for (std::size_t bit0 = 0; bit0 + m <= n_bits; bit0 += 7) {
      std::vector<std::uint64_t> want_lead(words, 0);
      std::vector<std::uint64_t> want_cnt(words, 0);
      for (std::size_t r = 0; r < m; ++r) {
        oracle_rotate(rows.ptrs[r], bit0, m, r, want_lead.data(), 0);
        oracle_rotate(rows.ptrs[r], bit0, m, (m - r) % m, want_cnt.data(), 0);
      }
      std::vector<std::uint64_t> lead_ref(words, ~std::uint64_t{0});
      std::vector<std::uint64_t> cnt_ref(words, ~std::uint64_t{0});
      simd::detail::block_peel_scalar(rows.ptrs.data(), m, bit0,
                                      lead_ref.data(), cnt_ref.data());
      ASSERT_EQ(lead_ref, want_lead) << "m=" << m << " bit0=" << bit0;
      ASSERT_EQ(cnt_ref, want_cnt) << "m=" << m << " bit0=" << bit0;
      for (const simd::Level l : simd::available_levels()) {
        std::vector<std::uint64_t> lead(words, ~std::uint64_t{0});
        std::vector<std::uint64_t> cnt(words, ~std::uint64_t{0});
        simd::kernels_for(l).block_peel(rows.ptrs.data(), m, bit0, lead.data(),
                                        cnt.data());
        EXPECT_EQ(lead, lead_ref) << simd::to_string(l) << " m=" << m
                                  << " bit0=" << bit0;
        EXPECT_EQ(cnt, cnt_ref) << simd::to_string(l) << " m=" << m
                                << " bit0=" << bit0;
      }
    }
  }
}

TEST(SimdKernels, NorColumnPassMatchesScalarAtEveryLevel) {
  Rng rng(0x51D'1003ull);
  for (const std::size_t n_words : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 17u, 40u}) {
    for (const std::size_t n_ins : {1u, 2u, 3u, 5u, 9u}) {
      std::vector<std::vector<std::uint64_t>> ins(
          n_ins, std::vector<std::uint64_t>(n_words));
      std::vector<const std::uint64_t*> ptrs(n_ins);
      for (std::size_t i = 0; i < n_ins; ++i) {
        for (auto& w : ins[i]) w = rng.next();
        ptrs[i] = ins[i].data();
      }
      std::vector<std::uint64_t> mask(n_words), out0(n_words);
      for (auto& w : mask) w = rng.next();
      for (auto& w : out0) w = rng.next();
      std::vector<std::uint64_t> out_ref = out0;
      const std::size_t viol_ref = simd::detail::nor_column_pass_scalar(
          ptrs.data(), n_ins, mask.data(), out_ref.data(), n_words);
      for (const simd::Level l : simd::available_levels()) {
        std::vector<std::uint64_t> out = out0;
        const std::size_t viol = simd::kernels_for(l).nor_column_pass(
            ptrs.data(), n_ins, mask.data(), out.data(), n_words);
        EXPECT_EQ(viol, viol_ref) << simd::to_string(l) << " nw=" << n_words;
        EXPECT_EQ(out, out_ref) << simd::to_string(l) << " nw=" << n_words;
      }
    }
  }
}

TEST(SimdKernels, Transpose64MatchesNaiveAndIsAnInvolutionAtEveryLevel) {
  Rng rng(0x51D'1004ull);
  for (int trial = 0; trial < 16; ++trial) {
    std::array<std::uint64_t, 64> block{};
    for (auto& w : block) w = trial == 0 ? 0 : rng.next();
    if (trial == 1) block.fill(~std::uint64_t{0});
    if (trial == 2) {
      for (std::size_t i = 0; i < 64; ++i) block[i] = std::uint64_t{1} << i;
    }
    std::array<std::uint64_t, 64> naive{};
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = 0; j < 64; ++j) {
        naive[j] |= ((block[i] >> j) & 1u) << i;
      }
    }
    for (const simd::Level l : simd::available_levels()) {
      std::array<std::uint64_t, 64> t = block;
      simd::kernels_for(l).transpose64(t.data());
      EXPECT_EQ(t, naive) << simd::to_string(l) << " trial " << trial;
      simd::kernels_for(l).transpose64(t.data());
      EXPECT_EQ(t, block) << simd::to_string(l) << " trial " << trial;
    }
  }
}

// --------------------------------------------- engine-level dispatch matrix

/// Shapes chosen so the dispatch matrix covers the m = 63 single-word path,
/// n % 64 != 0 tails, small odd m, and multi-chunk bands.
struct ArrayShape {
  std::size_t n;
  std::size_t m;
};
constexpr ArrayShape kArrayShapes[] = {{15, 3}, {70, 7}, {93, 31}, {126, 63}};

/// One full ArrayCode exercise at the given level: encode, inject faults,
/// scrub whole-array / band / block, apply a line delta, verify
/// consistency.  Returns every observable output for cross-level pinning.
struct ArrayRun {
  std::vector<ecc::CheckBits> after_encode;
  ecc::ScrubReport scrub_report;
  BitMatrix data_after_scrub{1, 1};
  ecc::ScrubReport band_report;
  ecc::BlockRepair block_repair;
  std::vector<ecc::CheckBits> after_delta;
  bool consistent_after_encode = false;

  bool operator==(const ArrayRun&) const = default;
};

ArrayRun run_array_code(simd::Level level, ArrayShape shape,
                        std::uint64_t seed) {
  LevelGuard guard;
  simd::set_level(level);
  Rng rng(seed);
  const std::size_t bps = shape.n / shape.m;
  ArrayRun run;

  BitMatrix data = util::random_bit_matrix(shape.n, shape.n, rng);
  ecc::ArrayCode code(shape.n, shape.m);
  code.encode_all(data);
  run.consistent_after_encode = code.consistent_with(data);
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      run.after_encode.push_back(code.check_bits({br, bc}));
    }
  }

  // A scattering of data faults (some blocks 0, some 1, some 2 flips).
  for (int i = 0; i < 12; ++i) {
    data.flip(rng.uniform_below(shape.n), rng.uniform_below(shape.n));
  }
  BitMatrix band_data = data;   // same faults, scrubbed band-wise below
  BitMatrix block_data = data;  // and block-wise
  run.scrub_report = code.scrub(data);
  run.data_after_scrub = data;

  run.band_report = code.scrub_band(band_data, rng.bernoulli(0.5),
                                    rng.uniform_below(bps));
  run.block_repair = code.scrub_block(
      block_data, {rng.uniform_below(bps), rng.uniform_below(bps)});

  // Line-delta bookkeeping (both orientations).  Re-encode first: blocks
  // that took two faults above are *correctly* left inconsistent by scrub,
  // and the consistency assertion below needs a clean baseline.
  code.encode_all(data);
  for (const bool is_column : {false, true}) {
    BitVector delta(shape.n);
    for (auto& w : delta.words_mutable()) w = rng.next();
    delta.sanitize();
    const std::size_t line = rng.uniform_below(shape.n);
    for (std::size_t i = 0; i < shape.n; ++i) {
      if (!delta.get(i)) continue;
      const std::size_t r = is_column ? i : line;
      const std::size_t c = is_column ? line : i;
      data.flip(r, c);
    }
    code.apply_line_delta(is_column, line, delta);
  }
  for (std::size_t br = 0; br < bps; ++br) {
    for (std::size_t bc = 0; bc < bps; ++bc) {
      run.after_delta.push_back(code.check_bits({br, bc}));
    }
  }
  EXPECT_TRUE(code.consistent_with(data))
      << "line-delta bookkeeping diverged at " << simd::to_string(level);
  return run;
}

TEST(SimdLevels, ArrayCodeIsBitIdenticalAcrossDispatchLevels) {
  for (const ArrayShape shape : kArrayShapes) {
    const std::uint64_t seed = 0x51D'2000ull + shape.n;
    const ArrayRun scalar_run =
        run_array_code(simd::Level::kScalar, shape, seed);
    EXPECT_TRUE(scalar_run.consistent_after_encode);
    for (const simd::Level l : simd::available_levels()) {
      if (l == simd::Level::kScalar) continue;
      const ArrayRun run = run_array_code(l, shape, seed);
      EXPECT_EQ(run, scalar_run)
          << simd::to_string(l) << " n=" << shape.n << " m=" << shape.m;
    }
  }
}

TEST(SimdLevels, EncodeAllMatchesBitSerialReferenceAtEveryLevel) {
  Rng rng(0x51D'2100ull);
  for (const ArrayShape shape : kArrayShapes) {
    const BitMatrix data = util::random_bit_matrix(shape.n, shape.n, rng);
    const ecc::ReferenceBlockCodec ref(shape.m);
    const std::size_t bps = shape.n / shape.m;
    for (const simd::Level l : simd::available_levels()) {
      LevelGuard guard;
      simd::set_level(l);
      ecc::ArrayCode code(shape.n, shape.m);
      code.encode_all(data);
      for (std::size_t br = 0; br < bps; ++br) {
        for (std::size_t bc = 0; bc < bps; ++bc) {
          EXPECT_EQ(code.check_bits({br, bc}),
                    ref.encode(data, br * shape.m, bc * shape.m))
              << simd::to_string(l) << " block (" << br << "," << bc << ")";
        }
      }
    }
  }
}

/// The same randomized MAGIC program on Crossbar vs ReferenceCrossbar,
/// executed once per dispatch level.  Odd row/column counts leave a ragged
/// tail word in every row, the shape the vector NOR pass must mask.
TEST(SimdLevels, CrossbarMatchesReferenceAtEveryLevel) {
  constexpr std::size_t kRowsXbar = 37;
  constexpr std::size_t kColsXbar = 101;
  for (const simd::Level level : simd::available_levels()) {
    LevelGuard guard;
    simd::set_level(level);
    Rng rng(0x51D'2200ull);
    xbar::Crossbar fast(kRowsXbar, kColsXbar);
    xbar::ReferenceCrossbar ref(kRowsXbar, kColsXbar);
    for (std::size_t r = 0; r < kRowsXbar; ++r) {
      for (std::size_t c = 0; c < kColsXbar; ++c) {
        const bool v = rng.bernoulli(0.5);
        fast.poke(r, c, v);
        ref.poke(r, c, v);
      }
    }
    for (int step = 0; step < 120; ++step) {
      const xbar::Orientation o = rng.bernoulli(0.5)
                                      ? xbar::Orientation::kRow
                                      : xbar::Orientation::kColumn;
      const std::size_t line_limit =
          o == xbar::Orientation::kRow ? kColsXbar : kRowsXbar;
      std::vector<std::size_t> ins;
      const std::size_t fan_in = 1 + rng.uniform_below(3);
      const std::size_t out_line = rng.uniform_below(line_limit);
      for (std::size_t i = 0; i < fan_in; ++i) {
        std::size_t line = rng.uniform_below(line_limit);
        if (line == out_line) line = (line + 1) % line_limit;
        bool dup = false;
        for (const std::size_t seen : ins) dup |= seen == line;
        if (!dup) ins.push_back(line);
      }
      const std::size_t out_arr[1] = {out_line};
      fast.magic_init(o, out_arr);
      ref.magic_init(o, out_arr);
      const xbar::OpResult rf = fast.magic_nor(o, ins, out_line);
      const xbar::OpResult rr = ref.magic_nor(o, ins, out_line);
      ASSERT_EQ(rf.lanes, rr.lanes) << simd::to_string(level);
      ASSERT_EQ(rf.violations, rr.violations)
          << simd::to_string(level) << " step " << step;
    }
    ASSERT_EQ(fast.contents(), ref.contents()) << simd::to_string(level);
    EXPECT_EQ(fast.cycles(), ref.cycles());
  }
}

// ------------------------------------------------------- tail-word poison

/// Sets every bit above `bits.size()` in the last backing word, bypassing
/// sanitize() -- the stray-high-bit state a buggy raw-word writer could
/// leave behind, and exactly what a sloppy wide kernel would read.
void poison_tail(BitVector& bits) {
  if (bits.size() % 64 == 0 || bits.word_count() == 0) return;
  auto words = bits.words_mutable();
  words[bits.word_count() - 1] |= ~((std::uint64_t{1} << (bits.size() % 64)) - 1);
}

void poison_matrix(BitMatrix& mat) {
  for (std::size_t r = 0; r < mat.rows(); ++r) poison_tail(mat.row(r));
}

/// Logical equality ignoring padding garbage.
bool logically_equal(const BitMatrix& a, const BitMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a.get(r, c) != b.get(r, c)) return false;
    }
  }
  return true;
}

TEST(SimdTailPoison, CodecResultsAreImmuneToPaddingGarbage) {
  // n % 64 != 0 so every row has a ragged tail word.  The check bits,
  // scrub reports, and corrected data of the poisoned run must match the
  // clean run at every dispatch level: no kernel may read tail bits.
  constexpr ArrayShape kShape{93, 31};
  Rng rng(0x51D'3000ull);
  const BitMatrix clean = util::random_bit_matrix(kShape.n, kShape.n, rng);
  const std::size_t bps = kShape.n / kShape.m;
  for (const simd::Level l : simd::available_levels()) {
    LevelGuard guard;
    simd::set_level(l);

    ecc::ArrayCode code_clean(kShape.n, kShape.m);
    ecc::ArrayCode code_poisoned(kShape.n, kShape.m);
    BitMatrix data_clean = clean;
    BitMatrix data_poisoned = clean;
    poison_matrix(data_poisoned);

    code_clean.encode_all(data_clean);
    code_poisoned.encode_all(data_poisoned);
    for (std::size_t br = 0; br < bps; ++br) {
      for (std::size_t bc = 0; bc < bps; ++bc) {
        ASSERT_EQ(code_poisoned.check_bits({br, bc}),
                  code_clean.check_bits({br, bc}))
            << simd::to_string(l) << " encode_all read tail bits";
      }
    }

    data_clean.flip(5, 92);  // last column: the tail word's top data bit
    data_poisoned.flip(5, 92);
    const ecc::ScrubReport rep_clean = code_clean.scrub(data_clean);
    const ecc::ScrubReport rep_poisoned = code_poisoned.scrub(data_poisoned);
    EXPECT_EQ(rep_poisoned, rep_clean) << simd::to_string(l);
    EXPECT_TRUE(logically_equal(data_poisoned, data_clean))
        << simd::to_string(l) << " scrub corrupted by tail bits";
  }
}

TEST(SimdTailPoison, MagicNorIsImmuneToPaddingGarbage) {
  constexpr std::size_t kRowsXbar = 33;
  constexpr std::size_t kColsXbar = 93;
  for (const simd::Level l : simd::available_levels()) {
    LevelGuard guard;
    simd::set_level(l);
    Rng rng(0x51D'3100ull);
    xbar::Crossbar clean(kRowsXbar, kColsXbar);
    xbar::Crossbar poisoned(kRowsXbar, kColsXbar);
    for (std::size_t r = 0; r < kRowsXbar; ++r) {
      for (std::size_t c = 0; c < kColsXbar; ++c) {
        const bool v = rng.bernoulli(0.5);
        clean.poke(r, c, v);
        poisoned.poke(r, c, v);
      }
    }
    poison_matrix(poisoned.contents_mutable());
    for (int step = 0; step < 40; ++step) {
      const xbar::Orientation o = rng.bernoulli(0.5)
                                      ? xbar::Orientation::kRow
                                      : xbar::Orientation::kColumn;
      const std::size_t limit =
          o == xbar::Orientation::kRow ? kColsXbar : kRowsXbar;
      const std::size_t in0 = rng.uniform_below(limit);
      const std::size_t in1 = (in0 + 1 + rng.uniform_below(limit - 2)) % limit;
      std::size_t out = (in1 + 1) % limit;
      if (out == in0) out = (out + 1) % limit;
      const std::size_t ins[2] = {in0, in1};
      const std::size_t outs[1] = {out};
      clean.magic_init(o, outs);
      poisoned.magic_init(o, outs);
      const xbar::OpResult rc = clean.magic_nor(o, ins, out);
      const xbar::OpResult rp = poisoned.magic_nor(o, ins, out);
      ASSERT_EQ(rp.violations, rc.violations)
          << simd::to_string(l) << " step " << step
          << ": violation count read tail bits";
    }
    EXPECT_TRUE(logically_equal(clean.contents(), poisoned.contents()))
        << simd::to_string(l);
    EXPECT_EQ(clean.cycles(), poisoned.cycles());
  }
}

// --------------------------------------- single-word blocks (m = 63 / 64)

TEST(SimdSingleWord, MultiSlopeCodecHandlesM63AndM64) {
  // ArrayCode requires odd m, so m = 64 single-word blocks are reachable
  // only through MultiSlopeCodec (slopes must be odd to be coprime to 64).
  Rng rng(0x51D'4000ull);
  for (const std::size_t m : {63u, 64u}) {
    const ecc::MultiSlopeCodec codec(m, {1, m - 1});
    for (const simd::Level l : simd::available_levels()) {
      LevelGuard guard;
      simd::set_level(l);
      BitMatrix data = util::random_bit_matrix(m + 9, m + 70, rng);
      const std::size_t row0 = rng.uniform_below(10);
      const std::size_t col0 = rng.uniform_below(71);
      const ecc::MultiCheckBits encoded = codec.encode(data, row0, col0);

      // Ground truth straight from line_of, bit by bit.
      for (std::size_t f = 0; f < codec.families(); ++f) {
        BitVector expect(m);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < m; ++c) {
            if (data.get(row0 + r, col0 + c)) {
              expect.flip(codec.line_of(f, r, c));
            }
          }
        }
        EXPECT_EQ(encoded.family_parity[f], expect)
            << simd::to_string(l) << " m=" << m << " family " << f;
      }

      // Single-bit error.  Odd m: unique correction.  Even m (64): every
      // slope coprime to m is odd, and shifting a cell by (m/2, m/2) moves
      // line (r + s*c) by (1 + s) * m/2 = 0 mod m for odd s -- so (r, c)
      // and (r + m/2, c + m/2) are indistinguishable in *every* family and
      // a single error is detectable but inherently ambiguous (the paper's
      // footnote-1 odd-m condition, generalized).
      ecc::MultiCheckBits stored = encoded;
      const std::size_t er = rng.uniform_below(m);
      const std::size_t ec = rng.uniform_below(m);
      data.flip(row0 + er, col0 + ec);
      const ecc::MultiDecodeResult result =
          codec.check_and_correct(data, row0, col0, stored);
      if (m % 2 == 1) {
        EXPECT_EQ(result.status, ecc::MultiDecodeStatus::kCorrected)
            << simd::to_string(l) << " m=" << m;
        EXPECT_EQ(codec.encode(data, row0, col0), encoded);
      } else {
        EXPECT_EQ(result.status, ecc::MultiDecodeStatus::kDetectedUncorrectable)
            << simd::to_string(l) << " m=" << m;
        data.flip(row0 + er, col0 + ec);  // undo by hand for the next phase
      }

      const bool old_v = data.get(row0 + er, col0 + ec);
      data.set(row0 + er, col0 + ec, !old_v);
      codec.update_for_write(stored, er, ec, old_v, !old_v);
      EXPECT_EQ(codec.encode(data, row0, col0), stored)
          << simd::to_string(l) << " m=" << m;
    }
  }
}

TEST(SimdSingleWord, ArrayCodeM63EndToEnd) {
  // n = 126, m = 63: two-block bands whose segments are word-misaligned
  // (63, 126, ... bit offsets) -- the straddling single-word path.
  for (const simd::Level l : simd::available_levels()) {
    LevelGuard guard;
    simd::set_level(l);
    Rng rng(0x51D'4100ull);
    BitMatrix data = util::random_bit_matrix(126, 126, rng);
    ecc::ArrayCode code(126, 63);
    code.encode_all(data);
    EXPECT_TRUE(code.consistent_with(data)) << simd::to_string(l);
    const BitMatrix pristine = data;
    data.flip(63, 0);     // second band, first block, word-aligned corner
    data.flip(100, 125);  // last column, straddled segment
    const ecc::ScrubReport report = code.scrub(data);
    EXPECT_EQ(report.corrected_data, 2u) << simd::to_string(l);
    EXPECT_EQ(report.uncorrectable, 0u) << simd::to_string(l);
    EXPECT_EQ(data, pristine) << simd::to_string(l);
  }
}

}  // namespace
}  // namespace pimecc
