// pimecc -- util/simd_avx2.cpp
//
// AVX2 kernel table.  Compiled with -mavx2 (set per-file by CMake); when the
// compiler lacks the flag or the build forces scalar, the stub at the bottom
// keeps the symbol defined and detection reports the level unavailable.
//
// Correctness notes shared by the kernels below:
//  * 64-bit vector shifts (vpsllq/vpsrlq by an xmm count, vpsllvq/vpsrlvq
//    per lane) return 0 for any count >= 64, so the band walk's segmented
//    rotation (counts 64 - k and m - k reach 64) and the peel's two-shift
//    rotate ((seg << k) | (seg >> m-k)) & mask are total -- including k == 0
//    and m == 64 -- with no per-lane branching and no shift-width UB.  This
//    is the vector twin of the masked scalar simd::rotl.
//  * Masked loads/stores (vpmaskmovq) and masked gathers (vpgatherqq)
//    perform no memory access on masked-out lanes, so the band walk's tail
//    chunk and the peel's conditional second-word read of a straddling
//    segment are exactly as safe as the scalar bounds they replace.
//  * Output words are masked with the segment masks (the peel's low m
//    bits, the band walk's segment_masks row 0), so tail-word garbage above
//    a row's logical size never leaks in.
//  * Segments wider than one word (m > 64) go to the scalar kernels.
#include "util/simd.hpp"

#if defined(__AVX2__) && !defined(PIMECC_FORCE_SCALAR_BUILD)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace pimecc::util::simd::detail {

namespace {

inline __m256i sll64(__m256i v, std::size_t k) noexcept {
  return _mm256_sll_epi64(v, _mm_cvtsi32_si128(static_cast<int>(k)));
}
inline __m256i srl64(__m256i v, std::size_t k) noexcept {
  return _mm256_srl_epi64(v, _mm_cvtsi32_si128(static_cast<int>(k)));
}

/// One 4-word chunk [w, w + 4) of band_accumulate.  An interior chunk
/// (w + 4 < words) uses plain loads, the last chunk maskload/maskstore,
/// which touch no masked-out word; vp/vn (words w+l-1 / w+l+1, 0 outside
/// the row) are loaded where they exist and permuted in from v at the row
/// edges.
template <bool kInterior>
void band_chunk(const BandShape& shape, const std::uint64_t* const* rows,
                std::size_t r0, std::size_t count, std::size_t w,
                __m256i live, std::uint64_t* lead, std::uint64_t* cnt) {
  const std::size_t m = shape.m;
  const std::size_t words = shape.words;
  const auto load = [live](const std::uint64_t* p) {
    return kInterior ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
                     : _mm256_maskload_epi64(
                           reinterpret_cast<const long long*>(p), live);
  };
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i vlead = load(lead + w);
  __m256i vcnt = load(cnt + w);
  // Shift counts r, 64 - r, m - r and 64 - (m - r), stepped per row.
  __m256i sh_r = _mm256_set1_epi64x(static_cast<long long>(r0));
  __m256i sh_64r = _mm256_sub_epi64(_mm256_set1_epi64x(64), sh_r);
  __m256i sh_mr =
      _mm256_sub_epi64(_mm256_set1_epi64x(static_cast<long long>(m)), sh_r);
  __m256i sh_64mr = _mm256_sub_epi64(_mm256_set1_epi64x(64), sh_mr);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* x = rows[i];
    const std::size_t r = r0 + i;
    const __m256i v = load(x + w);
    if (r == 0) {
      vlead = _mm256_xor_si256(vlead, v);
      vcnt = _mm256_xor_si256(vcnt, v);
    } else {
      const __m256i vp =
          w == 0 ? _mm256_blend_epi32(_mm256_permute4x64_epi64(v, 0x90), zero,
                                      0x03)
                 : load(x + w - 1);
      const __m256i vn =
          kInterior ? load(x + w + 1)
                    : _mm256_blend_epi32(_mm256_permute4x64_epi64(v, 0xf9),
                                         zero, 0xc0);
      const __m256i up_r = _mm256_or_si256(_mm256_sllv_epi64(v, sh_r),
                                           _mm256_srlv_epi64(vp, sh_64r));
      const __m256i down_r = _mm256_or_si256(_mm256_srlv_epi64(v, sh_r),
                                             _mm256_sllv_epi64(vn, sh_64r));
      const __m256i up_mr = _mm256_or_si256(_mm256_sllv_epi64(v, sh_mr),
                                            _mm256_srlv_epi64(vp, sh_64mr));
      const __m256i down_mr = _mm256_or_si256(_mm256_srlv_epi64(v, sh_mr),
                                              _mm256_sllv_epi64(vn, sh_64mr));
      const __m256i m_lead = load(shape.masks + r * words + w);
      const __m256i m_cnt = load(shape.masks + (m - r) * words + w);
      vlead = _mm256_xor_si256(
          vlead, _mm256_or_si256(_mm256_and_si256(m_lead, up_r),
                                 _mm256_andnot_si256(m_lead, down_mr)));
      vcnt = _mm256_xor_si256(
          vcnt, _mm256_or_si256(_mm256_and_si256(m_cnt, up_mr),
                                _mm256_andnot_si256(m_cnt, down_r)));
    }
    sh_r = _mm256_add_epi64(sh_r, one);
    sh_64r = _mm256_sub_epi64(sh_64r, one);
    sh_mr = _mm256_sub_epi64(sh_mr, one);
    sh_64mr = _mm256_add_epi64(sh_64mr, one);
  }
  const __m256i valid = load(shape.masks + w);
  vlead = _mm256_and_si256(vlead, valid);
  vcnt = _mm256_and_si256(vcnt, valid);
  if (kInterior) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lead + w), vlead);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cnt + w), vcnt);
  } else {
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(lead + w), live, vlead);
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(cnt + w), live, vcnt);
  }
}

void band_accumulate_avx2(const BandShape& shape,
                          const std::uint64_t* const* rows, std::size_t r0,
                          std::size_t count, std::uint64_t* lead,
                          std::uint64_t* cnt) {
  if (shape.m > 64) return band_accumulate_scalar(shape, rows, r0, count,
                                                  lead, cnt);
  // Chunk-outer, row-inner, as in the AVX-512 unit: the chunk's two
  // accumulators stay in registers across the band.
  const std::size_t words = shape.words;
  std::size_t w = 0;
  for (; w + 4 < words; w += 4) {
    band_chunk<true>(shape, rows, r0, count, w, _mm256_set1_epi64x(-1), lead,
                     cnt);
  }
  const auto lanes = static_cast<long long>(words - w);
  const __m256i live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
  band_chunk<false>(shape, rows, r0, count, w, live, lead, cnt);
}

void block_peel_avx2(const std::uint64_t* const* rows, std::size_t m,
                     std::size_t bit0, std::uint64_t* lead,
                     std::uint64_t* cnt) {
  if (m > 64) return block_peel_scalar(rows, m, bit0, lead, cnt);
  const std::uint64_t mask = low_mask(m);
  const std::size_t wi = bit0 / 64;
  const auto sh = static_cast<long long>(bit0 % 64);
  const bool straddles = sh != 0 && static_cast<std::size_t>(sh) + m > 64;
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vsh = _mm256_set1_epi64x(sh);
  const __m256i vlsh = _mm256_set1_epi64x(64 - sh);
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
  __m256i vlead = _mm256_setzero_si256();
  __m256i vcnt = _mm256_setzero_si256();
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    // Four rows at once: the segment position is shared, the row base
    // pointers are not, so gather by absolute address (base nullptr,
    // byte-scale indices).  The straddle condition is uniform across lanes,
    // hence a plain branch instead of a masked gather.
    const __m256i vaddr = _mm256_set_epi64x(
        static_cast<long long>(reinterpret_cast<std::uintptr_t>(rows[r + 3] + wi)),
        static_cast<long long>(reinterpret_cast<std::uintptr_t>(rows[r + 2] + wi)),
        static_cast<long long>(reinterpret_cast<std::uintptr_t>(rows[r + 1] + wi)),
        static_cast<long long>(reinterpret_cast<std::uintptr_t>(rows[r + 0] + wi)));
    const __m256i g0 =
        _mm256_i64gather_epi64(static_cast<const long long*>(nullptr), vaddr, 1);
    __m256i seg = _mm256_srlv_epi64(g0, vsh);
    if (straddles) {
      const __m256i g1 = _mm256_i64gather_epi64(
          static_cast<const long long*>(nullptr),
          _mm256_add_epi64(vaddr, _mm256_set1_epi64x(8)), 1);
      seg = _mm256_or_si256(seg, _mm256_sllv_epi64(g1, vlsh));
    }
    seg = _mm256_and_si256(seg, vmask);
    // Rotation counts differ per lane (k = r+l): variable shifts, with the
    // count-64 cases (k = 0 -> m-k may be 64) naturally yielding 0.
    const __m256i vk = _mm256_set_epi64x(
        static_cast<long long>(r + 3), static_cast<long long>(r + 2),
        static_cast<long long>(r + 1), static_cast<long long>(r + 0));
    const __m256i vmk = _mm256_sub_epi64(vm, vk);
    vlead = _mm256_xor_si256(
        vlead, _mm256_and_si256(_mm256_or_si256(_mm256_sllv_epi64(seg, vk),
                                                _mm256_srlv_epi64(seg, vmk)),
                                vmask));
    vcnt = _mm256_xor_si256(
        vcnt, _mm256_and_si256(_mm256_or_si256(_mm256_sllv_epi64(seg, vmk),
                                               _mm256_srlv_epi64(seg, vk)),
                               vmask));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vlead);
  std::uint64_t l = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vcnt);
  std::uint64_t c = lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3];
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

/// Per-lane popcount of 4x64 via the nibble-LUT + psadbw idiom.
inline __m256i popcount64x4(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
  const __m256i cnt8 = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                       _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt8, _mm256_setzero_si256());
}

std::size_t nor_column_pass_avx2(const std::uint64_t* const* ins,
                                 std::size_t n_ins, const std::uint64_t* mask,
                                 std::uint64_t* out, std::size_t n_words) {
  __m256i vviol = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= n_words; w += 4) {
    __m256i any = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ins[0] + w));
    for (std::size_t i = 1; i < n_ins; ++i) {
      any = _mm256_or_si256(
          any, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ins[i] + w)));
    }
    const __m256i mw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + w));
    const __m256i ow =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + w));
    vviol = _mm256_add_epi64(vviol, popcount64x4(_mm256_andnot_si256(ow, mw)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + w),
        _mm256_andnot_si256(_mm256_and_si256(mw, any), ow));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vviol);
  std::size_t violations =
      static_cast<std::size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; w < n_words; ++w) {
    std::uint64_t any = ins[0][w];
    for (std::size_t i = 1; i < n_ins; ++i) any |= ins[i][w];
    violations += static_cast<std::size_t>(std::popcount(mask[w] & ~out[w]));
    out[w] &= ~(mask[w] & any);
  }
  return violations;
}

/// One block-swap stage between two vectors: the high j bits of each
/// word of x trade places with the low j bits of the same lane of y.
inline void swap_stage(__m256i& x, __m256i& y, std::size_t j,
                       __m256i mask) noexcept {
  const __m256i t = _mm256_and_si256(_mm256_xor_si256(srl64(x, j), y), mask);
  y = _mm256_xor_si256(y, t);
  x = _mm256_xor_si256(x, sll64(t, j));
}

/// One block-swap stage inside a vector: `lo`/`hi` broadcast the k and
/// k + j words of each swapped pair to both of the pair's lanes, and
/// `hi_lanes` (a blend_epi32 immediate) marks the k + j lanes.
template <int kLo, int kHi, int kHiLanes>
inline __m256i swap_in_vector(__m256i v, std::size_t j, __m256i mask) noexcept {
  const __m256i lo = _mm256_permute4x64_epi64(v, kLo);
  const __m256i hi = _mm256_permute4x64_epi64(v, kHi);
  const __m256i t = _mm256_and_si256(_mm256_xor_si256(srl64(lo, j), hi), mask);
  return _mm256_xor_si256(v, _mm256_blend_epi32(sll64(t, j), t, kHiLanes));
}

/// simd::detail::transpose64_scalar's six stages on 16 four-word vectors:
/// j = 32..4 pair whole vectors, j = 2 and 1 pair lanes of one vector.
void transpose64_avx2(std::uint64_t* block) {
  __m256i v[16];
  for (std::size_t p = 0; p < 16; ++p) {
    v[p] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4 * p));
  }
  constexpr std::uint64_t kMasks[4] = {
      0x00000000ffffffffull, 0x0000ffff0000ffffull, 0x00ff00ff00ff00ffull,
      0x0f0f0f0f0f0f0f0full};
  std::size_t j = 32;
  for (const std::uint64_t mask : kMasks) {
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
    const std::size_t step = j / 4;
    for (std::size_t p = 0; p < 16; p = ((p | step) + 1) & ~step) {
      swap_stage(v[p], v[p | step], j, vmask);
    }
    j >>= 1;
  }
  const __m256i mask2 = _mm256_set1_epi64x(0x3333333333333333ll);
  const __m256i mask1 = _mm256_set1_epi64x(0x5555555555555555ll);
  for (std::size_t p = 0; p < 16; ++p) {
    // j = 2 pairs lanes (0, 2) and (1, 3); j = 1 pairs (0, 1) and (2, 3).
    v[p] = swap_in_vector<0x44, 0xee, 0xf0>(v[p], 2, mask2);
    v[p] = swap_in_vector<0xa0, 0xf5, 0xcc>(v[p], 1, mask1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 4 * p), v[p]);
  }
}

/// simd::detail::row_walk_scalar on 4 tiles: column c is the 256-bit word
/// at cols + 4c.  Like the scalar walk, the lanes are counted only when
/// some output was not initialized (popcnt comes with -mavx2).
std::uint64_t row_walk_avx2(const std::uint32_t* stream, std::size_t length,
                            std::uint64_t* cols, const std::uint64_t* valid) {
  const auto at = [cols](std::uint32_t c) {
    return reinterpret_cast<__m256i*>(cols + 4 * std::size_t{c});
  };
  const __m256i live = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(valid));
  std::uint64_t violations = 0;
  for (const std::uint32_t* const end = stream + length; stream != end;) {
    const std::uint32_t head = *stream++;
    const std::uint32_t k = head >> 1;
    if ((head & 1u) == 0) {
      for (std::uint32_t j = 0; j < k; ++j) {
        __m256i* col = at(stream[j]);
        _mm256_storeu_si256(col, _mm256_or_si256(_mm256_loadu_si256(col), live));
      }
      stream += k;
      continue;
    }
    __m256i any = _mm256_loadu_si256(at(stream[0]));
    for (std::uint32_t j = 1; j < k; ++j) {
      any = _mm256_or_si256(any, _mm256_loadu_si256(at(stream[j])));
    }
    __m256i* out = at(stream[k]);
    stream += k + 1;
    const __m256i was = _mm256_loadu_si256(out);
    const __m256i bad = _mm256_andnot_si256(was, live);
    if (_mm256_testz_si256(bad, bad) == 0) {
      alignas(32) std::uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), bad);
      for (const std::uint64_t lane : lanes) {
        violations += static_cast<std::uint64_t>(std::popcount(lane));
      }
    }
    _mm256_storeu_si256(out, _mm256_andnot_si256(any, was));
  }
  return violations;
}

constexpr KernelTable kAvx2Table{
    &band_accumulate_avx2,
    &block_peel_avx2,
    &nor_column_pass_avx2,
    &transpose64_avx2,
    &row_walk_avx2,
    4,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace pimecc::util::simd::detail

#else  // !__AVX2__ || PIMECC_FORCE_SCALAR_BUILD

namespace pimecc::util::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace pimecc::util::simd::detail

#endif
