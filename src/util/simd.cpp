#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pimecc::util::simd {

namespace detail {

namespace {

/// Word w of a `words`-word row shifted by s bits -- s / 64 words and
/// s % 64 bits -- toward higher bits (`up`) or lower ones; words outside
/// the row read as 0 (an index below 0 wraps past `words`).
inline std::uint64_t shifted(const std::uint64_t* x, std::size_t words,
                             std::size_t w, std::size_t s, bool up) noexcept {
  const auto at = [x, words](std::size_t i) { return i < words ? x[i] : 0; };
  const std::size_t i = up ? w - s / 64 : w + s / 64;
  const unsigned b = s % 64;
  return up ? at(i) << b | at(i - 1) >> 1 >> (63 - b)
            : at(i) >> b | at(i + 1) << 1 << (63 - b);
}

/// band_accumulate_scalar; kOneWord (m <= 64) promises every shift is in
/// [1, 63], so the shifted words come from the row's words w - 1, w and
/// w + 1 alone.
template <bool kOneWord>
void band_rows(const BandShape& shape, const std::uint64_t* const* rows,
               std::size_t r0, std::size_t count, std::uint64_t* lead,
               std::uint64_t* cnt) {
  const std::size_t m = shape.m;
  const std::size_t words = shape.words;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* x = rows[i];
    const std::size_t r = r0 + i;
    if (r == 0) {  // both rotations are the identity
      for (std::size_t w = 0; w < words; ++w) {
        lead[w] ^= x[w];
        cnt[w] ^= x[w];
      }
      continue;
    }
    // The segmented rotation by k takes the row shifted up by k at segment
    // offsets >= k (masks row k) and the row shifted down by m - k below
    // them.  Lead rotates by r, the counter by m - r, so the four multiword
    // shifts are by r and m - r.
    const std::uint64_t* m_lead = shape.masks + r * words;
    const std::uint64_t* m_cnt = shape.masks + (m - r) * words;
    const std::size_t mr = m - r;
    std::uint64_t prev = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t up_r, down_r, up_mr, down_mr;
      if constexpr (kOneWord) {
        const std::uint64_t cur = x[w];
        const std::uint64_t next = w + 1 < words ? x[w + 1] : 0;
        up_r = (cur << r) | (prev >> (64 - r));
        down_r = (cur >> r) | (next << (64 - r));
        up_mr = (cur << mr) | (prev >> (64 - mr));
        down_mr = (cur >> mr) | (next << (64 - mr));
        prev = cur;
      } else {
        up_r = shifted(x, words, w, r, true);
        down_r = shifted(x, words, w, r, false);
        up_mr = shifted(x, words, w, mr, true);
        down_mr = shifted(x, words, w, mr, false);
      }
      lead[w] ^= (up_r & m_lead[w]) | (down_mr & ~m_lead[w]);
      cnt[w] ^= (up_mr & m_cnt[w]) | (down_r & ~m_cnt[w]);
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    lead[w] &= shape.masks[w];
    cnt[w] &= shape.masks[w];
  }
}

}  // namespace

void block_peel_scalar(const std::uint64_t* const* rows, std::size_t m,
                       std::size_t bit0, std::uint64_t* lead,
                       std::uint64_t* cnt) {
  if (m > 64) {
    std::fill_n(lead, (m + 63) / 64, 0);
    std::fill_n(cnt, (m + 63) / 64, 0);
    for (std::size_t r = 0; r < m; ++r) {
      xor_rotated(lead, 0, rows[r], bit0, m, r, false);
      xor_rotated(cnt, 0, rows[r], bit0, m, (m - r) % m, false);
    }
    return;
  }
  std::uint64_t l = 0;
  std::uint64_t c = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const std::uint64_t seg = extract(rows[r], bit0, m);
    l ^= rotl(seg, r, m);
    c ^= rotl(seg, m - r, m);  // (m - r) % m handled by rotl's reduction
  }
  *lead = l;
  *cnt = c;
}

void band_accumulate_scalar(const BandShape& shape,
                            const std::uint64_t* const* rows, std::size_t r0,
                            std::size_t count, std::uint64_t* lead,
                            std::uint64_t* cnt) {
  (shape.m <= 64 ? band_rows<true> : band_rows<false>)(shape, rows, r0, count,
                                                      lead, cnt);
}

std::size_t nor_column_pass_scalar(const std::uint64_t* const* ins,
                                   std::size_t n_ins, const std::uint64_t* mask,
                                   std::uint64_t* out, std::size_t n_words) {
  std::size_t violations = 0;
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t any = ins[0][w];
    for (std::size_t i = 1; i < n_ins; ++i) any |= ins[i][w];
    const std::uint64_t mw = mask[w];
    violations += static_cast<std::size_t>(std::popcount(mw & ~out[w]));
    out[w] &= ~(mw & any);
  }
  return violations;
}

void transpose64_scalar(std::uint64_t* block) {
  // Six block-swap stages (Hacker's Delight 7-3, with bit 0 the low bit):
  // stage j swaps the upper-right and lower-left j x j sub-blocks of every
  // 2j x 2j diagonal block -- the high j bits of row k with the low j bits
  // of row k + j.  The stages act on independent index bits, so any order
  // transposes; the wide kernels use the same six.
  constexpr std::uint64_t kMasks[6] = {
      0x00000000ffffffffull, 0x0000ffff0000ffffull, 0x00ff00ff00ff00ffull,
      0x0f0f0f0f0f0f0f0full, 0x3333333333333333ull, 0x5555555555555555ull};
  std::size_t j = 32;
  for (const std::uint64_t mask : kMasks) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & mask;
      block[k | j] ^= t;
      block[k] ^= t << j;
    }
    j >>= 1;
  }
}

std::uint64_t row_walk_scalar(const std::uint32_t* stream, std::size_t length,
                              std::uint64_t* cols, const std::uint64_t* valid) {
  const std::uint64_t live = *valid;
  std::uint64_t violations = 0;
  for (const std::uint32_t* const end = stream + length; stream != end;) {
    const std::uint32_t head = *stream++;
    const std::uint32_t k = head >> 1;
    if ((head & 1u) == 0) {
      for (std::uint32_t j = 0; j < k; ++j) cols[stream[j]] |= live;
      stream += k;
      continue;
    }
    std::uint64_t any = 0;
    for (std::uint32_t j = 0; j < k; ++j) any |= cols[stream[j]];
    std::uint64_t& out = cols[stream[k]];
    stream += k + 1;
    // A mapped program initializes every output first, so the count (a
    // library call without a popcount instruction) is almost never due.
    const std::uint64_t bad = ~out & live;
    if (bad != 0) violations += static_cast<std::uint64_t>(std::popcount(bad));
    out &= ~any;
  }
  return violations;
}

}  // namespace detail

std::vector<std::uint64_t> segment_masks(std::size_t m, std::size_t segments) {
  if (m == 0) throw std::invalid_argument("simd::segment_masks: m must be >= 1");
  const std::size_t bits = segments * m;
  const std::size_t words = (bits + 63) / 64;
  std::vector<std::uint64_t> masks(m * words, ~std::uint64_t{0});
  if (bits % 64 != 0) masks[words - 1] = low_mask(bits % 64);
  // Row k is row k - 1 less each segment's offset k - 1.
  for (std::size_t k = 1; k < m; ++k) {
    std::uint64_t* row = masks.data() + k * words;
    std::copy_n(row - words, words, row);
    for (std::size_t p = k - 1; p < bits; p += m) {
      row[p / 64] &= ~(std::uint64_t{1} << (p % 64));
    }
  }
  return masks;
}

namespace {

constexpr KernelTable kScalarTable{
    &detail::band_accumulate_scalar,
    &detail::block_peel_scalar,
    &detail::nor_column_pass_scalar,
    &detail::transpose64_scalar,
    &detail::row_walk_scalar,
    1,
};

Level detect() noexcept {
#if defined(PIMECC_FORCE_SCALAR_BUILD)
  return Level::kScalar;
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (detail::avx512_table() != nullptr &&
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return Level::kAvx512;
  }
  if (detail::avx2_table() != nullptr && __builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
  return Level::kScalar;
#else
  return Level::kScalar;
#endif
}

const KernelTable* table_for(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return &kScalarTable;
    case Level::kAvx2: return detail::avx2_table();
    case Level::kAvx512: return detail::avx512_table();
  }
  return nullptr;
}

struct Dispatch {
  Level detected;
  bool forced_scalar_env;
  std::atomic<const KernelTable*> table;
  std::atomic<Level> level;

  Dispatch() noexcept : detected(detect()), forced_scalar_env(false) {
    const char* env = std::getenv("PIMECC_FORCE_SCALAR");
    forced_scalar_env =
        env != nullptr && env[0] != '\0' && std::string(env) != "0";
    const Level start = forced_scalar_env ? Level::kScalar : detected;
    level.store(start, std::memory_order_relaxed);
    table.store(table_for(start), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() noexcept {
  static Dispatch d;  // constructed on first use; kernels() is hot after that
  return d;
}

}  // namespace

Level detected_level() noexcept { return dispatch().detected; }

Level active_level() noexcept {
  return dispatch().level.load(std::memory_order_relaxed);
}

bool force_scalar_env() noexcept { return dispatch().forced_scalar_env; }

void set_level(Level level) {
  Dispatch& d = dispatch();
  if (static_cast<unsigned>(level) > static_cast<unsigned>(d.detected)) {
    throw std::invalid_argument(std::string("simd::set_level: level '") +
                                to_string(level) +
                                "' not supported on this CPU/build (max '" +
                                to_string(d.detected) + "')");
  }
  d.level.store(level, std::memory_order_relaxed);
  d.table.store(table_for(level), std::memory_order_relaxed);
}

std::vector<Level> available_levels() {
  std::vector<Level> out;
  const auto max = static_cast<unsigned>(dispatch().detected);
  for (unsigned l = 0; l <= max; ++l) out.push_back(static_cast<Level>(l));
  return out;
}

const KernelTable& kernels() noexcept {
  return *dispatch().table.load(std::memory_order_relaxed);
}

const KernelTable& kernels_for(Level level) {
  Dispatch& d = dispatch();
  if (static_cast<unsigned>(level) > static_cast<unsigned>(d.detected)) {
    throw std::invalid_argument(std::string("simd::kernels_for: level '") +
                                to_string(level) +
                                "' not supported on this CPU/build (max '" +
                                to_string(d.detected) + "')");
  }
  return *table_for(level);
}

}  // namespace pimecc::util::simd
