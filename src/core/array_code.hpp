// pimecc -- core/array_code.hpp
//
// Whole-crossbar diagonal ECC state: an n x n array divided into an
// imaginary grid of (n/m) x (n/m) blocks of size m x m, with 2m check bits
// per block (paper Section III).  This is the *functional* (golden) model of
// the Check Memory contents; src/arch models where those bits physically
// live and what each update costs in cycles.
//
// For an m x m data block (m odd) the code stores 2m check bits: the parity
// of every leading wrap-around diagonal and of every counter wrap-around
// diagonal.  The resulting two-dimensional parity code provides
// single-error correction per block: a flipped data bit flags exactly one
// leading and one counter diagonal, whose intersection is unique for odd m;
// a flipped check bit flags exactly one diagonal on one axis only, which
// identifies the check bit itself.  The bit-serial codec in
// oracle/reference_block_code.hpp is the test oracle: encode_all and the
// scrubs must match it block for block.
//
// Storage mirrors the CMEM's layout: per block-row band, one packed n-bit
// lead row and one packed n-bit counter row, block column bc's m check bits
// at bits [bc*m, bc*m + m).  The counter row holds each block's counter
// parities pre-reflection (diagonal i at segment offset (m - i) mod m), the
// order the band kernel produces them in; check_bits() reflects them back.
// Every odd m takes the same packed path: a segment wider than one 64-bit
// word rotates as s / 64 words plus s % 64 bits (util/simd).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/geometry.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "util/simd.hpp"

namespace pimecc::ecc {

/// The 2m check bits of one block: one parity per leading diagonal and one
/// per counter diagonal.
struct CheckBits {
  util::BitVector leading;  ///< leading[i] = parity of leading diagonal i
  util::BitVector counter;  ///< counter[i] = parity of counter diagonal i

  explicit CheckBits(std::size_t m = 0) : leading(m), counter(m) {}
  bool operator==(const CheckBits&) const noexcept = default;
};

/// Outcome classification of decoding one block's syndrome.
enum class DecodeStatus : unsigned char {
  kClean,                  ///< no error signature
  kCorrectedData,          ///< single data-bit error located and corrected
  kCorrectedCheck,         ///< single check-bit error located and corrected
  kDetectedUncorrectable,  ///< multi-error signature; flagged but not fixed
};

/// Which check bit erred, when DecodeStatus::kCorrectedCheck.
struct CheckBitLocation {
  bool on_leading_axis = false;  ///< true: leading[index]; false: counter[index]
  std::size_t index = 0;
  bool operator==(const CheckBitLocation&) const noexcept = default;
};

/// Full decode verdict for one block.
struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  std::optional<Cell> data_error;            ///< set iff kCorrectedData
  std::optional<CheckBitLocation> check_error;  ///< set iff kCorrectedCheck
  bool operator==(const DecodeResult&) const noexcept = default;
};

/// Grid coordinates of a block.
struct BlockIndex {
  std::size_t block_row = 0;  ///< index of the block band, top to bottom
  std::size_t block_col = 0;  ///< index of the block band, left to right
  bool operator==(const BlockIndex&) const noexcept = default;
};

/// One cell write observed by the ECC layer (old value -> new value).
struct CellWrite {
  std::size_t r = 0;  ///< absolute row in the n x n array
  std::size_t c = 0;  ///< absolute column
  bool old_value = false;
  bool new_value = false;
};

/// Outcome of scrubbing a single block: the DecodeStatus plus where the
/// repair landed, in absolute array coordinates.  Enough to undo the
/// repair (flips are involutions) or to compute a residual diff against a
/// pre-fault image -- the sparse Monte Carlo engine's per-touched-block
/// bookkeeping.
struct BlockRepair {
  DecodeStatus status = DecodeStatus::kClean;
  std::size_t data_r = 0;  ///< absolute row of the flipped data bit (kCorrectedData)
  std::size_t data_c = 0;  ///< absolute column of the flipped data bit (kCorrectedData)
  bool check_on_leading_axis = false;  ///< which family was repaired (kCorrectedCheck)
  std::size_t check_index = 0;         ///< diagonal index of the repaired check bit
  bool operator==(const BlockRepair&) const noexcept = default;
};

/// Summary of a whole-array scrub.
struct ScrubReport {
  std::size_t blocks_checked = 0;
  std::size_t clean = 0;
  std::size_t corrected_data = 0;
  std::size_t corrected_check = 0;
  std::size_t uncorrectable = 0;
  bool operator==(const ScrubReport&) const noexcept = default;
};

/// Diagonal-parity ECC over an n x n bit array (n divisible by odd m).
class ArrayCode {
 public:
  /// Throws std::invalid_argument unless m is odd and divides n.
  ArrayCode(std::size_t n, std::size_t m);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t m() const noexcept { return geometry_.m(); }
  [[nodiscard]] std::size_t blocks_per_side() const noexcept { return n_ / m(); }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_per_side() * blocks_per_side();
  }
  [[nodiscard]] const DiagonalGeometry& geometry() const noexcept {
    return geometry_;
  }

  [[nodiscard]] BlockIndex block_of(std::size_t r, std::size_t c) const noexcept {
    return {r / m(), c / m()};
  }

  /// Block b's check bits, counter in diagonal order.  Throws
  /// std::out_of_range on a bad block.
  [[nodiscard]] CheckBits check_bits(BlockIndex b) const;

  /// Flips one stored check bit: leading[index] (`leading`) or
  /// counter[index] of block b -- a soft error, a repair, or its rollback.
  /// Throws std::out_of_range on a bad block or index >= m.
  void flip_check_bit(BlockIndex b, bool leading, std::size_t index);

  /// Overwrites block b's stored check bits.  Throws std::out_of_range on a
  /// bad block and std::invalid_argument unless both families have m bits.
  void set_check_bits(BlockIndex b, const CheckBits& bits);

  /// Recomputes every block's check bits from `data` (n x n): one
  /// band_accumulate per band assigns its two packed rows, O(m * n/64) word
  /// ops per band instead of m*n bit reads.
  void encode_all(const util::BitMatrix& data);

  /// Continuous update for a batch of cell writes (one parallel MAGIC
  /// operation).  Θ(1) parity work per check bit -- asserted by tests via
  /// verify_theta1_property().
  void apply_writes(const std::vector<CellWrite>& writes);

  /// Checks every block against `data`, correcting single errors in place
  /// (data bit in `data`, check bit in this object) -- the paper's periodic
  /// full-memory check: the row-band walk over every band, which decodes
  /// only the blocks whose syndrome segment is nonzero and applies paper
  /// Section III's syndrome rule to each.
  ScrubReport scrub(util::BitMatrix& data);

  /// Checks (and corrects, exactly like scrub) every block of one block-row
  /// (`row_band` true) or block-column -- the paper's before-use check of
  /// the band containing a line about to be operated on.  The row-band walk
  /// for a block-row, one per-block repair per block of a block-column.
  ScrubReport scrub_band(util::BitMatrix& data, bool row_band, std::size_t band);

  /// Checks (and corrects, exactly like scrub) the single block `b`: one
  /// per-block repair, O(m) word ops.  Returns what was repaired and where,
  /// so a caller tracking its own fault set can compute the block's
  /// residual and roll the repair back.
  BlockRepair scrub_block(util::BitMatrix& data, BlockIndex b);

  /// Differential continuous update for one whole written line (the
  /// critical-operation protocol's steps 1+3 fused): `delta` is
  /// old XOR new of the line's n bits.  For a written column
  /// (`line_is_column`), block-row band g folds rotl(delta_seg, line mod m)
  /// into its leading family and rotl(delta_seg, -line mod m) into its
  /// counter family; for a written row the counter family is additionally
  /// reflected (stride m-1) -- one or two rotate+XORs per affected block,
  /// never a re-encode.  Validates before mutating any parity.
  void apply_line_delta(bool line_is_column, std::size_t line,
                        const util::BitVector& delta);

  /// Differential continuous update for a row-major delta slab covering
  /// one block-row band: delta_rows[r] (r < m) points at the ceil(n/64)
  /// words of old XOR new of row band*m + r, bits at or above n zero (the
  /// BitVector padding invariant).  Parity is linear, so the band's packed
  /// rows are XORed with the encode of the slab -- the same band_accumulate
  /// as encode_all, one pass for any number of changed lines (a wide
  /// batched init).  Throws std::out_of_range on a bad band before mutating
  /// any parity.
  void apply_band_delta(std::size_t band,
                        const std::uint64_t* const* delta_rows);

  /// True iff every check bit matches `data` exactly: one band_accumulate
  /// per band into scratch (on the stack up to n = 4096), compared word by
  /// word.  Const and thread-safe.
  [[nodiscard]] bool consistent_with(const util::BitMatrix& data) const;

  /// Section III invariant: within any single row-parallel or
  /// column-parallel operation, each (block, diagonal) is written at most
  /// once.  Returns false if `writes` violates it (meaning the batch could
  /// not have come from one parallel MAGIC op on distinct cells).
  [[nodiscard]] bool writes_touch_each_diagonal_once(
      const std::vector<CellWrite>& writes) const;

 private:
  [[nodiscard]] std::size_t flat_index(BlockIndex b) const;
  void require_shape(const util::BitMatrix& data) const;
  [[nodiscard]] std::uint64_t* lead_row(std::size_t band) noexcept {
    return lead_.data() + band * words_;
  }
  [[nodiscard]] std::uint64_t* cnt_row(std::size_t band) noexcept {
    return cnt_.data() + band * words_;
  }
  [[nodiscard]] const std::uint64_t* lead_row(std::size_t band) const noexcept {
    return lead_.data() + band * words_;
  }
  [[nodiscard]] const std::uint64_t* cnt_row(std::size_t band) const noexcept {
    return cnt_.data() + band * words_;
  }
  /// The packed rows' layout for the band kernel.
  [[nodiscard]] util::simd::BandShape shape() const noexcept {
    return {m(), words_, masks_.data()};
  }
  /// Stored rows of `band` XOR the parity of its data rows: the band's
  /// syndrome, into `lead`/`cnt` (words_ words each).
  void band_syndrome(const util::BitMatrix& data, std::size_t band,
                     std::uint64_t* lead, std::uint64_t* cnt) const;
  /// Continuous-parity update for one changed cell (absolute r, c); only
  /// apply_writes flips single cells.
  void flip_cell(std::size_t r, std::size_t c);
  /// Flips one stored check bit; block and index already validated.
  void flip_stored(BlockIndex b, bool leading, std::size_t index);
  /// The row-band walk of the scrubs: checks and corrects every block of
  /// block-row `band` (shape and band already validated), decoding only the
  /// nonzero segments of the band's syndrome.
  void scrub_whole_band(util::BitMatrix& data, std::size_t band,
                        ScrubReport& report);
  /// One per-block repair (block-column scrubs, scrub_block): the block's
  /// block_peel XOR its stored segments, decoded.
  BlockRepair scrub_one(util::BitMatrix& data, BlockIndex b,
                        ScrubReport& report);
  /// Applies `verdict` to block b in place (data bit in `data`, check bit
  /// in the packed rows) and counts it into `report`.
  BlockRepair repair(util::BitMatrix& data, BlockIndex b,
                     const DecodeResult& verdict, ScrubReport& report);

  std::size_t n_;
  std::size_t words_;  // ceil(n / 64): one packed row
  DiagonalGeometry geometry_;
  // Packed check bits, blocks_per_side() rows of words_ words each: lead_
  // holds the leading parities, cnt_ the pre-reflection counter parities.
  std::vector<std::uint64_t> lead_;
  std::vector<std::uint64_t> cnt_;
  // simd::segment_masks(m, blocks_per_side()): m rows of words_ words.
  std::vector<std::uint64_t> masks_;
};

}  // namespace pimecc::ecc
