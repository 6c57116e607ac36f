// pimecc -- util/simd.hpp
//
// Runtime-dispatched SIMD kernels under the word-parallel engines.
//
// The word-parallel engines express every hot path as loops over 64-bit
// words; this layer vectorizes the hottest of those loops, and the 64x64
// bit transpose under the row-program executor, as AVX2 and AVX-512
// kernels selected by CPUID at startup, PISA-style: the scalar
// implementation is retained as the portable fallback and as the
// golden model every wider variant must match bit-for-bit (pinned by the
// dispatch-level differential suite in tests/test_simd.cpp).
//
// Layering: this header knows nothing about BitVector/BitMatrix -- kernels
// take raw word pointers, so core/ and xbar/ can both sit on top of it.
// The bit and segment primitives (low_mask / rotl / reflect / extract /
// xor_rotated ...) live here because the scalar kernels and core/ share
// them.
//
// Dispatch levels
//   kScalar  portable uint64_t loops (always available)
//   kAvx2    256-bit: 4-word shifts and blends, gathers for the one-block
//            peel (x86-64 with AVX2)
//   kAvx512  512-bit: 8-word shifts, ternary-logic blends, masked tail
//            loads, vpopcntq (needs F/BW/DQ/VL/VPOPCNTDQ)
//
// Selection: the highest level the CPU supports, unless the environment
// variable PIMECC_FORCE_SCALAR is set (non-empty, not "0") at process
// start, or the library was built with -DPIMECC_FORCE_SCALAR=ON (which
// compiles the SIMD translation units out entirely).  Tests and benches
// can also override per-call-site with set_level(), which clamps to the
// detected level and is how the differential suite proves every available
// level bit-identical to scalar on the same hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pimecc::util::simd {

// ---------------------------------------------------------------- primitives

/// Mask of the low m bits (m in [0, 64]).
[[nodiscard]] constexpr std::uint64_t low_mask(std::size_t m) noexcept {
  return m >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << m) - 1;
}

/// Masked rotate-left of the low m bits of `seg` by k: bit c -> (c + k) mod m.
/// Total for every m in [1, 64] and any k (k is reduced mod m; stray bits of
/// `seg` at positions >= m are discarded before rotating, so they can never
/// leak into the result through the right-shift half).  Both shift counts
/// are provably < 64 on every path, so there is no shift-width UB even at
/// m == 64 -- the corner the unmasked `seg >> (m - k)` form trips over.
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t seg, std::size_t k,
                                           std::size_t m) noexcept {
  seg &= low_mask(m);
  k %= m;
  if (k == 0) return seg;
  return ((seg << k) | (seg >> (m - k))) & low_mask(m);
}

/// Reverses all 64 bits (bit j -> 63 - j).
[[nodiscard]] constexpr std::uint64_t bit_reverse(std::uint64_t v) noexcept {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0f0f0f0f0f0f0f0full) | ((v & 0x0f0f0f0f0f0f0f0full) << 4);
  v = ((v >> 8) & 0x00ff00ff00ff00ffull) | ((v & 0x00ff00ff00ff00ffull) << 8);
  v = ((v >> 16) & 0x0000ffff0000ffffull) | ((v & 0x0000ffff0000ffffull) << 16);
  return (v >> 32) | (v << 32);
}

/// Reflection of the low m bits: bit j -> (m - j) mod m (bit 0 fixed, bits
/// [1, m) reversed).  This is the stride-(m-1) permutation -- the counter
/// diagonal's reordering -- in O(1) instead of the O(m) bit loop:
/// bit_reverse sends j to 63-j, the shift re-anchors to m-1-j, and one
/// rotate-left lands on (m - j) mod m.  Valid for m in [1, 64]; the shift
/// count 64 - m is at most 63 because bit_reverse already handled m == 64.
[[nodiscard]] constexpr std::uint64_t reflect(std::uint64_t seg,
                                              std::size_t m) noexcept {
  return rotl(bit_reverse(seg) >> (64 - m), 1, m);
}

/// Bits [bit0, bit0 + len) of a packed row as the low len bits of one word
/// (len in [1, 64]); only the words the range overlaps are read.
[[nodiscard]] inline std::uint64_t extract(const std::uint64_t* words,
                                           std::size_t bit0,
                                           std::size_t len) noexcept {
  const std::size_t wi = bit0 / 64;
  const unsigned shift = static_cast<unsigned>(bit0 % 64);
  std::uint64_t seg = words[wi] >> shift;
  if (shift != 0 && shift + len > 64) seg |= words[wi + 1] << (64u - shift);
  return seg & low_mask(len);
}

/// XORs `value` (no bits at or above len) into bits [bit0, bit0 + len) of
/// a packed row (len in [1, 64]): extract's inverse.
inline void xor_bits(std::uint64_t* words, std::size_t bit0, std::size_t len,
                     std::uint64_t value) noexcept {
  const std::size_t wi = bit0 / 64;
  const unsigned shift = static_cast<unsigned>(bit0 % 64);
  words[wi] ^= value << shift;
  if (shift != 0 && shift + len > 64) words[wi + 1] ^= value >> (64u - shift);
}

/// XORs a piece (`v`, no bits at or above len <= 64) into the m-bit segment
/// at dst_bit0 from segment offset `at` < m on, wrapping past offset m - 1.
inline void xor_wrapped(std::uint64_t* dst, std::size_t dst_bit0,
                        std::size_t m, std::size_t at, std::uint64_t v,
                        std::size_t len) noexcept {
  if (len == m) {  // a one-word segment rotates in-register
    xor_bits(dst, dst_bit0, m,
             ((v << at) | (v >> (m - at - 1) >> 1)) & low_mask(m));
    return;
  }
  const std::size_t head = len < m - at ? len : m - at;
  xor_bits(dst, dst_bit0 + at, head, v & low_mask(head));
  if (head < len) xor_bits(dst, dst_bit0, len - head, v >> head);
}

/// XORs the m-bit segment at src_bit0 of `src` into the one at dst_bit0 of
/// `dst`, rotated left by k < m (bit j -> (j + k) mod m) or, `reflected`,
/// read backwards from k (bit j -> (k - j) mod m; k = 0 is reflect).  Any
/// m: a 64-bit piece of the source lands in at most two of the destination.
inline void xor_rotated(std::uint64_t* dst, std::size_t dst_bit0,
                        const std::uint64_t* src, std::size_t src_bit0,
                        std::size_t m, std::size_t k, bool reflected) noexcept {
  for (std::size_t i = 0; i < m; i += 64) {
    const std::size_t len = m - i < 64 ? m - i : 64;
    const std::uint64_t v = extract(src, src_bit0 + i, len);
    // Piece bits [i, i + len) land on [i + k, i + k + len) or, backwards,
    // on [k + 1 - i - len, k - i], both mod m.
    std::size_t at = reflected ? k + 1 + m - i - len : i + k;
    if (at >= m) at -= m;
    xor_wrapped(dst, dst_bit0, m, at,
                reflected ? bit_reverse(v) >> (64 - len) : v, len);
  }
}

// ------------------------------------------------------------------ dispatch

enum class Level : unsigned char { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

[[nodiscard]] constexpr const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "?";
}

/// Highest level this CPU (and this build) supports.  Detected once via
/// CPUID; a PIMECC_FORCE_SCALAR build reports kScalar unconditionally.
[[nodiscard]] Level detected_level() noexcept;

/// Level the kernel table currently dispatches to.  Starts at
/// detected_level(), or kScalar when the PIMECC_FORCE_SCALAR environment
/// variable is set (non-empty, not "0") at process start.
[[nodiscard]] Level active_level() noexcept;

/// Re-points the kernel table at `level`.  Throws std::invalid_argument if
/// the CPU (or build) does not support it -- callers enumerate
/// available_levels() instead of guessing.  Intended for tests and benches;
/// concurrent kernel calls see either the old or the new table (the swap is
/// one atomic pointer store).
void set_level(Level level);

/// Every level in [kScalar, detected_level()], lowest first.
[[nodiscard]] std::vector<Level> available_levels();

/// True iff the PIMECC_FORCE_SCALAR environment variable pinned the initial
/// level to scalar (diagnostic; set_level can still raise it afterwards).
[[nodiscard]] bool force_scalar_env() noexcept;

// ------------------------------------------------------------------- kernels

/// Layout of one packed band row for KernelTable::band_accumulate: `words`
/// 64-bit words holding consecutive m-bit segments from bit 0 (any m >= 1),
/// and the segment-mask table built by segment_masks.
struct BandShape {
  std::size_t m = 0;
  std::size_t words = 0;
  const std::uint64_t* masks = nullptr;  ///< m x words, row k at masks[k * words]
};

/// Segment-mask table of `segments` packed m-bit segments (m >= 1, else
/// std::invalid_argument): m rows of ceil(segments * m / 64) words, where
/// row k marks the bits whose offset inside their segment is >= k (row 0
/// marks every segment bit; no row marks a bit beyond the last segment).
/// Built once per ArrayCode, it is no larger than the data it describes.
[[nodiscard]] std::vector<std::uint64_t> segment_masks(std::size_t m,
                                                       std::size_t segments);

/// The dispatched kernels.  All pointers are non-null at every level; the
/// scalar table is the reference semantics and every wider table must be
/// bit-identical on any input (differential-tested per level).  Kernels
/// taking an m accept any m >= 1; the wide tables vectorize m <= 64 and
/// hand wider segments to the scalar kernels.
struct KernelTable {
  /// Diagonal rotate-and-XOR accumulation over one block band, packed (the
  /// codec engine's encode_all/scrub/consistent_with walk and its delta
  /// folds).  rows[i] (i < count) points at the backing words of band row
  /// r = r0 + i (r0 + count <= m): `shape.words` words of consecutive m-bit
  /// segments from bit 0, segment bc at bits [bc*m, bc*m + m).  lead and
  /// cnt are packed rows of the same layout; for every row and segment the
  /// kernel XORs in
  ///   lead.seg(bc) ^= rotl(row.seg(bc), r, m)
  ///   cnt.seg(bc)  ^= rotl(row.seg(bc), (m - r) % m, m)
  /// as one *segmented rotation* of the whole row per axis: two multiword
  /// shifts blended by shape.masks[k] (the bits whose segment offset is
  /// >= k), no per-segment extraction; a shift by s moves s / 64 words and
  /// s % 64 bits.  cnt stays pre-reflection: callers map offsets back to
  /// diagonals where they need diagonal order.  Bits of a row beyond its
  /// last segment are never read unmasked, and the output bits beyond the
  /// last segment come out zero.
  void (*band_accumulate)(const BandShape& shape,
                          const std::uint64_t* const* rows, std::size_t r0,
                          std::size_t count, std::uint64_t* lead,
                          std::uint64_t* cnt);

  /// Same accumulation for ONE block of all m rows, whose m-bit segment sits
  /// at bit offset bit0 of each row (the one-block checks: block-column
  /// scrubs and scrub_block).  rows[r] (r < m) points at the backing words
  /// of block row r.  lead / cnt receive the
  /// leading and pre-reflection counter parities, ceil(m / 64) words each,
  /// bits at or above m zero.
  void (*block_peel)(const std::uint64_t* const* rows, std::size_t m,
                     std::size_t bit0, std::uint64_t* lead,
                     std::uint64_t* cnt);

  /// Fused column-orientation MAGIC NOR pass over n_words words:
  ///   viol    += popcount(mask[w] & ~out[w])        (uninitialized outputs)
  ///   out[w]  &= ~(mask[w] & (OR_i ins[i][w]))      (out' = out AND NOR(in))
  /// Returns the violation count.  One pass instead of the former
  /// copy/OR/invert/count/AND/assign chain; mask's padding bits must be 0
  /// (BitVector invariant), so out's padding is preserved verbatim.
  std::size_t (*nor_column_pass)(const std::uint64_t* const* ins,
                                 std::size_t n_ins, const std::uint64_t* mask,
                                 std::uint64_t* out, std::size_t n_words);

  /// In-place transpose of a 64x64 bit matrix held as 64 words (bit j of
  /// block[i] is element (i, j)): afterwards bit j of block[i] holds what
  /// bit i of block[j] held.  An involution.  The row-program executor
  /// (xbar::Crossbar::run_rows) turns one 64-column word group of 64 rows
  /// into 64 per-column words with it, and back.
  void (*transpose64)(std::uint64_t* block);
};

/// Kernel table for the active level.  One relaxed atomic pointer load.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Kernel table for a specific level (throws like set_level on unsupported
/// levels).  Lets benches time two levels without racing on the global.
[[nodiscard]] const KernelTable& kernels_for(Level level);

namespace detail {
/// The scalar implementations, shared by simd.cpp's table and by the AVX
/// translation units' remainder loops.
void band_accumulate_scalar(const BandShape& shape,
                            const std::uint64_t* const* rows, std::size_t r0,
                            std::size_t count, std::uint64_t* lead,
                            std::uint64_t* cnt);
void block_peel_scalar(const std::uint64_t* const* rows, std::size_t m,
                       std::size_t bit0, std::uint64_t* lead,
                       std::uint64_t* cnt);
std::size_t nor_column_pass_scalar(const std::uint64_t* const* ins,
                                   std::size_t n_ins,
                                   const std::uint64_t* mask,
                                   std::uint64_t* out, std::size_t n_words);
void transpose64_scalar(std::uint64_t* block);
/// Defined in simd_avx2.cpp / simd_avx512.cpp (null when compiled out).
[[nodiscard]] const KernelTable* avx2_table() noexcept;
[[nodiscard]] const KernelTable* avx512_table() noexcept;
}  // namespace detail

}  // namespace pimecc::util::simd
