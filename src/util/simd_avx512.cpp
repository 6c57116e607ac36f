// pimecc -- util/simd_avx512.cpp
//
// AVX-512 kernel table: same algorithms as the AVX2 unit at twice the lane
// width, with native per-lane popcount (vpopcntq, AVX512VPOPCNTDQ),
// ternary-logic blends, k-register masked loads for the band walk's tail
// chunk and masked gathers for the one-block peel.  Compiled with the
// avx512{f,bw,dq,vl,vpopcntdq} flags set per-file by CMake; stubbed to
// nullptr otherwise.  The shift-totality and masked-access safety arguments
// are identical to the AVX2 unit (vector shift counts >= 64 yield 0;
// masked-out load and gather lanes perform no memory access), and so is
// the hand-off of segments wider than one word to the scalar kernels.
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

void band_accumulate_avx512(const BandShape& shape,
                            const std::uint64_t* const* rows, std::size_t r0,
                            std::size_t count, std::uint64_t* lead,
                            std::uint64_t* cnt) {
  if (shape.m > 64) return band_accumulate_scalar(shape, rows, r0, count,
                                                  lead, cnt);
  const std::size_t m = shape.m;
  const std::size_t words = shape.words;
  const __m512i one = _mm512_set1_epi64(1);
  // Chunk-outer, row-inner: the chunk's two accumulators stay in registers
  // across the band.  Loads and stores go under lane masks (one load uop
  // each), so no row, mask or output word past `words` -- or before word
  // 0 -- is touched.
  for (std::size_t w = 0; w < words; w += 8) {
    const std::size_t lanes = words - w < 8 ? words - w : 8;
    const auto live = static_cast<__mmask8>((1u << lanes) - 1);
    const auto live_next = static_cast<__mmask8>(w + 8 < words ? live : live >> 1);
    __m512i vlead = _mm512_maskz_loadu_epi64(live, lead + w);
    __m512i vcnt = _mm512_maskz_loadu_epi64(live, cnt + w);
    // Shift counts r, 64 - r, m - r and 64 - (m - r), stepped per row.
    __m512i sh_r = _mm512_set1_epi64(static_cast<long long>(r0));
    __m512i sh_64r = _mm512_sub_epi64(_mm512_set1_epi64(64), sh_r);
    __m512i sh_mr =
        _mm512_sub_epi64(_mm512_set1_epi64(static_cast<long long>(m)), sh_r);
    __m512i sh_64mr = _mm512_sub_epi64(_mm512_set1_epi64(64), sh_mr);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t* x = rows[i];
      const std::size_t r = r0 + i;
      const __m512i v = _mm512_maskz_loadu_epi64(live, x + w);
      if (r == 0) {
        vlead = _mm512_xor_si512(vlead, v);
        vcnt = _mm512_xor_si512(vcnt, v);
      } else {
        // Lane l of vp is word w+l-1 and of vn word w+l+1 (0 outside).
        const __m512i vp =
            w == 0 ? _mm512_alignr_epi64(v, _mm512_setzero_si512(), 7)
                   : _mm512_maskz_loadu_epi64(live, x + w - 1);
        const __m512i vn = _mm512_maskz_loadu_epi64(live_next, x + w + 1);
        const __m512i up_r = _mm512_or_si512(_mm512_sllv_epi64(v, sh_r),
                                             _mm512_srlv_epi64(vp, sh_64r));
        const __m512i down_r = _mm512_or_si512(_mm512_srlv_epi64(v, sh_r),
                                               _mm512_sllv_epi64(vn, sh_64r));
        const __m512i up_mr = _mm512_or_si512(_mm512_sllv_epi64(v, sh_mr),
                                              _mm512_srlv_epi64(vp, sh_64mr));
        const __m512i down_mr = _mm512_or_si512(
            _mm512_srlv_epi64(v, sh_mr), _mm512_sllv_epi64(vn, sh_64mr));
        const __m512i m_lead =
            _mm512_maskz_loadu_epi64(live, shape.masks + r * words + w);
        const __m512i m_cnt =
            _mm512_maskz_loadu_epi64(live, shape.masks + (m - r) * words + w);
        // acc ^= mask ? up : down, as one ternary-logic select-and-xor.
        vlead = _mm512_xor_si512(
            vlead, _mm512_ternarylogic_epi64(m_lead, up_r, down_mr, 0xca));
        vcnt = _mm512_xor_si512(
            vcnt, _mm512_ternarylogic_epi64(m_cnt, up_mr, down_r, 0xca));
      }
      sh_r = _mm512_add_epi64(sh_r, one);
      sh_64r = _mm512_sub_epi64(sh_64r, one);
      sh_mr = _mm512_sub_epi64(sh_mr, one);
      sh_64mr = _mm512_add_epi64(sh_64mr, one);
    }
    const __m512i valid = _mm512_maskz_loadu_epi64(live, shape.masks + w);
    _mm512_mask_storeu_epi64(lead + w, live, _mm512_and_si512(vlead, valid));
    _mm512_mask_storeu_epi64(cnt + w, live, _mm512_and_si512(vcnt, valid));
  }
}

void block_peel_avx512(const std::uint64_t* const* rows, std::size_t m,
                       std::size_t bit0, std::uint64_t* lead,
                       std::uint64_t* cnt) {
  if (m > 64) return block_peel_scalar(rows, m, bit0, lead, cnt);
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

/// simd::detail::row_walk_scalar on 8 tiles: column c is the 512-bit word
/// at cols + 8c, and each NOR's violations are one vpopcntq into a lane
/// accumulator, summed once at the end.
std::uint64_t row_walk_avx512(const std::uint32_t* stream, std::size_t length,
                              std::uint64_t* cols, const std::uint64_t* valid) {
  const auto at = [cols](std::uint32_t c) { return cols + 8 * std::size_t{c}; };
  const __m512i live = _mm512_loadu_si512(valid);
  __m512i violations = _mm512_setzero_si512();
  for (const std::uint32_t* const end = stream + length; stream != end;) {
    const std::uint32_t head = *stream++;
    const std::uint32_t k = head >> 1;
    if ((head & 1u) == 0) {
      for (std::uint32_t j = 0; j < k; ++j) {
        std::uint64_t* col = at(stream[j]);
        _mm512_storeu_si512(col, _mm512_or_si512(_mm512_loadu_si512(col), live));
      }
      stream += k;
      continue;
    }
    __m512i any = _mm512_loadu_si512(at(stream[0]));
    for (std::uint32_t j = 1; j < k; ++j) {
      any = _mm512_or_si512(any, _mm512_loadu_si512(at(stream[j])));
    }
    std::uint64_t* out = at(stream[k]);
    stream += k + 1;
    const __m512i was = _mm512_loadu_si512(out);
    violations = _mm512_add_epi64(
        violations, _mm512_popcnt_epi64(_mm512_andnot_si512(was, live)));
    _mm512_storeu_si512(out, _mm512_andnot_si512(any, was));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(violations));
}

constexpr KernelTable kAvx512Table{
    &band_accumulate_avx512,
    &block_peel_avx512,
    &nor_column_pass_avx512,
    &transpose64_avx512,
    &row_walk_avx512,
    8,
};

}  // namespace

const KernelTable* avx512_table() noexcept { return &kAvx512Table; }

}  // namespace pimecc::util::simd::detail

#else  // missing AVX-512 feature set || PIMECC_FORCE_SCALAR_BUILD

namespace pimecc::util::simd::detail {
const KernelTable* avx512_table() noexcept { return nullptr; }
}  // namespace pimecc::util::simd::detail

#endif
