// pimecc -- oracle/multislope_code.hpp
//
// Generalization of the paper's two-family diagonal code (Section III,
// trade-off bullet 1: "the code used for check-bits along a diagonal...
// increased complexity leads to increased reliability at the cost of more
// complex calculations and more overhead"; ref [16], multidimensional
// codes).
//
// Family s assigns cell (r, c) to line (r + s*c) mod m.  Any slope s with
// gcd(s, m) = 1 partitions the block into m parallel wrap-around lines,
// and -- crucially for PIM -- a row- or column-parallel MAGIC operation
// still touches each line of each family at most once, so the Θ(1)
// continuous-update property is preserved for every family
// simultaneously.  The paper's code is the special case slopes = {+1, -1}
// (leading and counter diagonals).
//
// More families buy more correction: K families give K syndrome
// coordinates per error.  Decoding searches for the smallest error set
// consistent with all K family syndromes; with K = 4 (slopes ±1, ±2) most
// double errors in a block become correctable instead of merely
// detectable.  bench_paper's multislope section quantifies the
// reliability-vs-storage trade-off against the paper's K = 2.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::ecc {

namespace diagword {

/// Applies the stride permutation bit j -> (s * j) mod m to the low m bits
/// (m <= 64; s reduced mod m, and for parity use coprime to m).  In the
/// polynomial view over GF(2)[x]/(x^m - 1), row r of a block is p_r(x) and
/// the slope-s family (line (r + s*c) mod m) is sum_r x^r p_r(x^s), so
///
///   family_s = stride_permute( XOR_r rotl(p_r, r * s^-1 mod m), s )
///
/// -- one rotate+XOR per row and one permutation per block.  s = 1 is the
/// identity and s = m-1 is reflect(), both O(1); other strides take the
/// O(m) bit loop.
[[nodiscard]] std::uint64_t stride_permute(std::uint64_t seg, std::size_t s,
                                           std::size_t m) noexcept;

}  // namespace diagword

/// Check bits of one block under K slope families: K*m parity bits.
struct MultiCheckBits {
  /// family_parity[f] has m bits: the parity of each line of family f.
  std::vector<util::BitVector> family_parity;

  bool operator==(const MultiCheckBits&) const noexcept = default;
};

/// Decode outcome for one block.
enum class MultiDecodeStatus : unsigned char {
  kClean,
  kCorrected,              ///< a unique smallest error set was applied
  kDetectedUncorrectable,  ///< inconsistent or ambiguous syndromes
};

struct MultiDecodeResult {
  MultiDecodeStatus status = MultiDecodeStatus::kClean;
  /// Data cells flipped back (block-relative), when kCorrected.
  std::vector<std::pair<std::size_t, std::size_t>> corrected_cells;
  /// Check bits repaired in `stored`, when kCorrected with no data error.
  std::size_t corrected_check_bits = 0;
};

/// Per-block encoder/decoder over K slope families.
class MultiSlopeCodec {
 public:
  /// `slopes` are taken mod m; each must be coprime to m and pairwise
  /// distinct mod m.  Throws std::invalid_argument otherwise.  The paper's
  /// diagonal code is MultiSlopeCodec(m, {1, m-1}).
  MultiSlopeCodec(std::size_t m, std::vector<std::size_t> slopes);

  [[nodiscard]] std::size_t m() const noexcept { return m_; }
  [[nodiscard]] std::size_t families() const noexcept { return slopes_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& slopes() const noexcept {
    return slopes_;
  }
  /// Check bits per block: K * m.
  [[nodiscard]] std::size_t check_bit_count() const noexcept {
    return families() * m_;
  }
  /// Storage overhead relative to the m*m data bits.
  [[nodiscard]] double storage_overhead() const noexcept {
    return static_cast<double>(check_bit_count()) /
           static_cast<double>(m_ * m_);
  }

  /// Line index of cell (r, c) in family f.
  [[nodiscard]] std::size_t line_of(std::size_t f, std::size_t r,
                                    std::size_t c) const;

  [[nodiscard]] MultiCheckBits encode(const util::BitMatrix& data,
                                      std::size_t row0, std::size_t col0) const;

  /// Continuous-parity update for one cell write (Θ(1) per family).
  void update_for_write(MultiCheckBits& check, std::size_t r, std::size_t c,
                        bool old_value, bool new_value) const;

  /// Checks and corrects in place.  Decoding searches error sets of size
  /// 0, 1, then 2 for a *unique* set whose per-family line flips match the
  /// syndrome; ambiguity or exhaustion reports kDetectedUncorrectable.
  /// Pure check-bit corruption (some families clean, few flags) repairs
  /// `stored` instead.  With the paper's K = 2 all double data errors are
  /// ambiguous (detection only); K >= 3 makes most of them correctable.
  MultiDecodeResult check_and_correct(util::BitMatrix& data, std::size_t row0,
                                      std::size_t col0,
                                      MultiCheckBits& stored) const;

  /// Maximum error-set size the decoder searches.
  [[nodiscard]] std::size_t max_search_errors() const noexcept {
    return families() >= 2 ? 2 : 1;
  }

 private:
  void require_window(const util::BitMatrix& data, std::size_t row0,
                      std::size_t col0) const;
  /// Syndrome = recomputed XOR stored, per family.
  [[nodiscard]] std::vector<util::BitVector> syndrome(
      const util::BitMatrix& data, std::size_t row0, std::size_t col0,
      const MultiCheckBits& stored) const;
  /// Whether flipping exactly `cells` explains the syndrome.
  [[nodiscard]] bool explains(
      const std::vector<util::BitVector>& syn,
      const std::vector<std::pair<std::size_t, std::size_t>>& cells) const;

  std::size_t m_;
  std::vector<std::size_t> slopes_;
  /// Modular inverse of each slope mod m (slopes are coprime to m), used by
  /// the word-parallel encoder: family f accumulates rotl(row_r, r * inv_f)
  /// then applies one stride-f permutation per block (see diagword in
  /// core/geometry).
  std::vector<std::size_t> inv_slopes_;
};

}  // namespace pimecc::ecc
