#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pimecc::util::simd {

namespace detail {

namespace {

/// Extracts the m-bit segment at absolute bit offset bit0 of a word array.
/// Identical contract to diagword::extract; duplicated here (two lines) so
/// this layer stays free of core/ includes.
inline std::uint64_t extract(const std::uint64_t* words, std::size_t bit0,
                             std::size_t m) noexcept {
  const std::size_t wi = bit0 / 64;
  const unsigned shift = static_cast<unsigned>(bit0 % 64);
  std::uint64_t seg = words[wi] >> shift;
  if (shift != 0 && shift + m > 64) {
    seg |= words[wi + 1] << (64u - shift);
  }
  return seg & low_mask(m);
}

}  // namespace

void block_peel_scalar(const std::uint64_t* const* rows, std::size_t m,
                       std::size_t bit0, std::uint64_t* lead,
                       std::uint64_t* cnt) {
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

void band_accumulate_scalar(const std::uint64_t* const* rows, std::size_t m,
                            std::size_t bps, std::uint64_t* lead,
                            std::uint64_t* cnt) {
  for (std::size_t bc = 0; bc < bps; ++bc) {
    lead[bc] = 0;
    cnt[bc] = 0;
  }
  for (std::size_t r = 0; r < m; ++r) {
    const std::uint64_t* words = rows[r];
    const std::size_t rot_right = r == 0 ? 0 : m - r;
    for (std::size_t bc = 0; bc < bps; ++bc) {
      const std::uint64_t seg = extract(words, bc * m, m);
      lead[bc] ^= rotl(seg, r, m);
      cnt[bc] ^= rotl(seg, rot_right, m);
    }
  }
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

}  // namespace detail

namespace {

constexpr KernelTable kScalarTable{
    &detail::band_accumulate_scalar,
    &detail::block_peel_scalar,
    &detail::nor_column_pass_scalar,
    &detail::transpose64_scalar,
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
