// pimecc -- util/simd_avx512.cpp
//
// AVX-512 kernel table: same algorithms as the AVX2 unit at twice the lane
// width, with native per-lane popcount (vpopcntq, AVX512VPOPCNTDQ) and
// k-register masked gathers.  Compiled with the avx512{f,bw,dq,vl,
// vpopcntdq} flags set per-file by CMake; stubbed to nullptr otherwise.
// The shift-totality and masked-gather safety arguments are identical to
// the AVX2 unit (vector shift counts >= 64 yield 0; masked-out gather lanes
// perform no memory access).
#include "util/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VPOPCNTDQ__) &&                  \
    !defined(PIMECC_FORCE_SCALAR_BUILD)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace pimecc::util::simd::detail {

namespace {

inline __m512i sll64(__m512i v, std::size_t k) noexcept {
  return _mm512_sll_epi64(v, _mm_cvtsi32_si128(static_cast<int>(k)));
}
inline __m512i srl64(__m512i v, std::size_t k) noexcept {
  return _mm512_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(k)));
}

inline void fold_rotations(__m512i seg, std::size_t k, std::size_t m,
                           __m512i vmask, __m512i& lead, __m512i& cnt) noexcept {
  const __m512i sl_k = sll64(seg, k);
  const __m512i sr_k = srl64(seg, k);
  const __m512i sl_mk = sll64(seg, m - k);
  const __m512i sr_mk = srl64(seg, m - k);
  lead = _mm512_xor_si512(
      lead, _mm512_and_si512(_mm512_or_si512(sl_k, sr_mk), vmask));
  cnt = _mm512_xor_si512(
      cnt, _mm512_and_si512(_mm512_or_si512(sl_mk, sr_k), vmask));
}

void band_accumulate_avx512(const std::uint64_t* const* rows, std::size_t m,
                            std::size_t bps, std::uint64_t* lead,
                            std::uint64_t* cnt) {
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(low_mask(m)));
  std::size_t bc = 0;
  if (m == 64) {
    for (; bc + 8 <= bps; bc += 8) {
      __m512i vlead = _mm512_setzero_si512();
      __m512i vcnt = _mm512_setzero_si512();
      for (std::size_t r = 0; r < m; ++r) {
        const __m512i seg = _mm512_loadu_si512(rows[r] + bc);
        fold_rotations(seg, r, m, vmask, vlead, vcnt);
      }
      _mm512_storeu_si512(lead + bc, vlead);
      _mm512_storeu_si512(cnt + bc, vcnt);
    }
  } else {
    for (; bc + 8 <= bps; bc += 8) {
      alignas(64) long long wi[8];
      alignas(64) long long sh[8];
      for (std::size_t l = 0; l < 8; ++l) {
        const std::size_t bit0 = (bc + l) * m;
        wi[l] = static_cast<long long>(bit0 >> 6);
        sh[l] = static_cast<long long>(bit0 & 63);
      }
      const __m512i vwi = _mm512_load_si512(wi);
      const __m512i vsh = _mm512_load_si512(sh);
      const __m512i vlsh = _mm512_sub_epi64(_mm512_set1_epi64(64), vsh);
      const __mmask8 need =
          _mm512_cmpneq_epi64_mask(vsh, _mm512_setzero_si512()) &
          _mm512_cmpgt_epi64_mask(
              _mm512_add_epi64(vsh,
                               _mm512_set1_epi64(static_cast<long long>(m))),
              _mm512_set1_epi64(64));
      const __m512i vwi1 = _mm512_add_epi64(vwi, _mm512_set1_epi64(1));
      __m512i vlead = _mm512_setzero_si512();
      __m512i vcnt = _mm512_setzero_si512();
      for (std::size_t r = 0; r < m; ++r) {
        const void* base = rows[r];
        const __m512i g0 = _mm512_i64gather_epi64(vwi, base, 8);
        const __m512i g1 = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), need, vwi1, base, 8);
        const __m512i seg = _mm512_and_si512(
            _mm512_or_si512(_mm512_srlv_epi64(g0, vsh),
                            _mm512_sllv_epi64(g1, vlsh)),
            vmask);
        fold_rotations(seg, r, m, vmask, vlead, vcnt);
      }
      _mm512_storeu_si512(lead + bc, vlead);
      _mm512_storeu_si512(cnt + bc, vcnt);
    }
  }
  for (; bc < bps; ++bc) {
    block_peel_scalar(rows, m, bc * m, lead + bc, cnt + bc);
  }
}

void block_peel_avx512(const std::uint64_t* const* rows, std::size_t m,
                       std::size_t bit0, std::uint64_t* lead,
                       std::uint64_t* cnt) {
  const std::uint64_t mask = low_mask(m);
  const std::size_t wi = bit0 / 64;
  const auto sh = static_cast<long long>(bit0 % 64);
  const bool straddles = sh != 0 && static_cast<std::size_t>(sh) + m > 64;
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vsh = _mm512_set1_epi64(sh);
  const __m512i vlsh = _mm512_set1_epi64(64 - sh);
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(m));
  const __m512i lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  __m512i vlead = _mm512_setzero_si512();
  __m512i vcnt = _mm512_setzero_si512();
  std::size_t r = 0;
  for (; r + 8 <= m; r += 8) {
    alignas(64) long long addr[8];
    for (std::size_t l = 0; l < 8; ++l) {
      addr[l] = static_cast<long long>(
          reinterpret_cast<std::uintptr_t>(rows[r + l] + wi));
    }
    const __m512i vaddr = _mm512_load_si512(addr);
    const __m512i g0 = _mm512_i64gather_epi64(vaddr, nullptr, 1);
    __m512i seg = _mm512_srlv_epi64(g0, vsh);
    if (straddles) {
      const __m512i g1 = _mm512_i64gather_epi64(
          _mm512_add_epi64(vaddr, _mm512_set1_epi64(8)), nullptr, 1);
      seg = _mm512_or_si512(seg, _mm512_sllv_epi64(g1, vlsh));
    }
    seg = _mm512_and_si512(seg, vmask);
    const __m512i vk = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(r)), lane_ids);
    const __m512i vmk = _mm512_sub_epi64(vm, vk);
    vlead = _mm512_xor_si512(
        vlead, _mm512_and_si512(_mm512_or_si512(_mm512_sllv_epi64(seg, vk),
                                                _mm512_srlv_epi64(seg, vmk)),
                                vmask));
    vcnt = _mm512_xor_si512(
        vcnt, _mm512_and_si512(_mm512_or_si512(_mm512_sllv_epi64(seg, vmk),
                                               _mm512_srlv_epi64(seg, vk)),
                               vmask));
  }
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, vlead);
  std::uint64_t l = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3] ^ lanes[4] ^
                    lanes[5] ^ lanes[6] ^ lanes[7];
  _mm512_store_si512(lanes, vcnt);
  std::uint64_t c = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3] ^ lanes[4] ^
                    lanes[5] ^ lanes[6] ^ lanes[7];
  for (; r < m; ++r) {
    std::uint64_t seg = rows[r][wi] >> sh;
    if (straddles) seg |= rows[r][wi + 1] << (64 - sh);
    seg &= mask;
    l ^= rotl(seg, r, m);
    c ^= rotl(seg, m - r, m);
  }
  *lead = l;
  *cnt = c;
}

std::size_t nor_column_pass_avx512(const std::uint64_t* const* ins,
                                   std::size_t n_ins,
                                   const std::uint64_t* mask,
                                   std::uint64_t* out, std::size_t n_words) {
  __m512i vviol = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= n_words; w += 8) {
    __m512i any = _mm512_loadu_si512(ins[0] + w);
    for (std::size_t i = 1; i < n_ins; ++i) {
      any = _mm512_or_si512(any, _mm512_loadu_si512(ins[i] + w));
    }
    const __m512i mw = _mm512_loadu_si512(mask + w);
    const __m512i ow = _mm512_loadu_si512(out + w);
    vviol = _mm512_add_epi64(
        vviol, _mm512_popcnt_epi64(_mm512_andnot_si512(ow, mw)));
    _mm512_storeu_si512(out + w,
                        _mm512_andnot_si512(_mm512_and_si512(mw, any), ow));
  }
  std::size_t violations =
      static_cast<std::size_t>(_mm512_reduce_add_epi64(vviol));
  for (; w < n_words; ++w) {
    std::uint64_t any = ins[0][w];
    for (std::size_t i = 1; i < n_ins; ++i) any |= ins[i][w];
    violations += static_cast<std::size_t>(std::popcount(mask[w] & ~out[w]));
    out[w] &= ~(mask[w] & any);
  }
  return violations;
}

/// One block-swap stage between two vectors (see the AVX2 unit).
inline void swap_stage(__m512i& x, __m512i& y, std::size_t j,
                       __m512i mask) noexcept {
  const __m512i t = _mm512_and_si512(_mm512_xor_si512(srl64(x, j), y), mask);
  y = _mm512_xor_si512(y, t);
  x = _mm512_xor_si512(x, sll64(t, j));
}

/// One block-swap stage inside a vector: `lo`/`hi` hold the k and k + j
/// words of each swapped pair in both of the pair's lanes, and `hi_lanes`
/// marks the k + j lanes.
inline __m512i swap_in_vector(__m512i v, __m512i lo, __m512i hi, std::size_t j,
                              __m512i mask, __mmask8 hi_lanes) noexcept {
  const __m512i t = _mm512_and_si512(_mm512_xor_si512(srl64(lo, j), hi), mask);
  return _mm512_xor_si512(v, _mm512_mask_blend_epi64(hi_lanes, sll64(t, j), t));
}

/// simd::detail::transpose64_scalar's six stages on 8 eight-word vectors:
/// j = 32, 16, 8 pair whole vectors; j = 4, 2, 1 pair lanes of one vector.
void transpose64_avx512(std::uint64_t* block) {
  __m512i v[8];
  for (std::size_t p = 0; p < 8; ++p) v[p] = _mm512_loadu_si512(block + 8 * p);
  constexpr std::uint64_t kMasks[3] = {
      0x00000000ffffffffull, 0x0000ffff0000ffffull, 0x00ff00ff00ff00ffull};
  std::size_t j = 32;
  for (const std::uint64_t mask : kMasks) {
    const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
    const std::size_t step = j / 8;
    for (std::size_t p = 0; p < 8; p = ((p | step) + 1) & ~step) {
      swap_stage(v[p], v[p | step], j, vmask);
    }
    j >>= 1;
  }
  const __m512i mask4 = _mm512_set1_epi64(0x0f0f0f0f0f0f0f0fll);
  const __m512i mask2 = _mm512_set1_epi64(0x3333333333333333ll);
  const __m512i mask1 = _mm512_set1_epi64(0x5555555555555555ll);
  for (std::size_t p = 0; p < 8; ++p) {
    // j = 4 pairs lanes (l, l + 4); j = 2 pairs (l, l + 2) inside each
    // 256-bit half; j = 1 pairs neighbours.
    __m512i w = v[p];
    w = swap_in_vector(w, _mm512_shuffle_i64x2(w, w, 0x44),
                       _mm512_shuffle_i64x2(w, w, 0xee), 4, mask4, 0xf0);
    w = swap_in_vector(w, _mm512_permutex_epi64(w, 0x44),
                       _mm512_permutex_epi64(w, 0xee), 2, mask2, 0xcc);
    w = swap_in_vector(w, _mm512_permutex_epi64(w, 0xa0),
                       _mm512_permutex_epi64(w, 0xf5), 1, mask1, 0xaa);
    _mm512_storeu_si512(block + 8 * p, w);
  }
}

constexpr KernelTable kAvx512Table{
    &band_accumulate_avx512,
    &block_peel_avx512,
    &nor_column_pass_avx512,
    &transpose64_avx512,
};

}  // namespace

const KernelTable* avx512_table() noexcept { return &kAvx512Table; }

}  // namespace pimecc::util::simd::detail

#else  // missing AVX-512 feature set || PIMECC_FORCE_SCALAR_BUILD

namespace pimecc::util::simd::detail {
const KernelTable* avx512_table() noexcept { return nullptr; }
}  // namespace pimecc::util::simd::detail

#endif
