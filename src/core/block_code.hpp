// pimecc -- core/block_code.hpp
//
// Per-block diagonal parity code (paper Section III).
//
// For an m x m data block (m odd) the code stores 2m check bits: the parity
// of every leading wrap-around diagonal and of every counter wrap-around
// diagonal.  The resulting two-dimensional parity code provides
// single-error correction per block: a flipped data bit flags exactly one
// leading and one counter diagonal, whose intersection is unique for odd m;
// a flipped check bit flags exactly one diagonal on one axis only, which
// identifies the check bit itself.
#pragma once

#include <cstddef>
#include <optional>

#include "core/geometry.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::ecc {

/// The 2m check bits of one block: one parity per leading diagonal and one
/// per counter diagonal.
struct CheckBits {
  util::BitVector leading;  ///< leading[i] = parity of leading diagonal i
  util::BitVector counter;  ///< counter[i] = parity of counter diagonal i

  explicit CheckBits(std::size_t m = 0) : leading(m), counter(m) {}
  bool operator==(const CheckBits&) const noexcept = default;
};

/// Difference between recomputed and stored parity per diagonal; all-zero
/// means the block is consistent.
struct Syndrome {
  util::BitVector leading;
  util::BitVector counter;

  explicit Syndrome(std::size_t m = 0) : leading(m), counter(m) {}
  [[nodiscard]] bool clean() const noexcept { return leading.none() && counter.none(); }
  bool operator==(const Syndrome&) const noexcept = default;
};

/// Outcome classification of decoding one block's syndrome.
enum class DecodeStatus : unsigned char {
  kClean,                  ///< no error signature
  kCorrectedData,          ///< single data-bit error located and corrected
  kCorrectedCheck,         ///< single check-bit error located and corrected
  kDetectedUncorrectable,  ///< multi-error signature; flagged but not fixed
};

[[nodiscard]] constexpr const char* to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kClean: return "clean";
    case DecodeStatus::kCorrectedData: return "corrected-data";
    case DecodeStatus::kCorrectedCheck: return "corrected-check";
    case DecodeStatus::kDetectedUncorrectable: return "detected-uncorrectable";
  }
  return "?";
}

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

/// Encoder/decoder for one block size m (odd).
///
/// The codec is pure: it owns no storage, operating on caller-provided
/// views.  The data view is any m x m window of a BitMatrix anchored at
/// (row0, col0).
///
/// This is the word-parallel production codec: parities are accumulated by
/// rotate-and-XOR over BitMatrix row words (O(m) word ops per block instead
/// of m*m bit reads; see diagword in core/geometry).  It must match the
/// bit-serial oracle codec (oracle/reference_block_code.hpp) exactly on any
/// input -- pinned by the differential suite in tests/test_codec_engine.cpp.
class BlockCodec {
 public:
  explicit BlockCodec(std::size_t m) : geometry_(m) {}

  [[nodiscard]] std::size_t m() const noexcept { return geometry_.m(); }
  [[nodiscard]] const DiagonalGeometry& geometry() const noexcept { return geometry_; }
  /// Check bits per block (2m).
  [[nodiscard]] std::size_t check_bit_count() const noexcept { return 2 * m(); }
  /// Total protected cells per block: m*m data + 2m check bits.
  [[nodiscard]] std::size_t cells_per_block() const noexcept {
    return m() * m() + 2 * m();
  }

  /// Computes the check bits of the m x m block anchored at (row0, col0).
  [[nodiscard]] CheckBits encode(const util::BitMatrix& data, std::size_t row0,
                                 std::size_t col0) const;

  /// Recomputed-vs-stored parity difference.
  [[nodiscard]] Syndrome compute_syndrome(const util::BitMatrix& data,
                                          std::size_t row0, std::size_t col0,
                                          const CheckBits& stored) const;

  /// Classifies a syndrome (no mutation).
  [[nodiscard]] DecodeResult classify(const Syndrome& syndrome) const;

  /// Checks the block and corrects in place: a single data-bit error is
  /// flipped back in `data`; a single check-bit error is flipped back in
  /// `stored`.  Returns the verdict.
  DecodeResult check_and_correct(util::BitMatrix& data, std::size_t row0,
                                 std::size_t col0, CheckBits& stored) const;

  /// Continuous-parity update for one cell write (paper Section III):
  /// applies delta = old ^ new to the two diagonals through (r, c), where
  /// r, c are block-relative (or absolute; reduced mod m).
  void update_for_write(CheckBits& check, std::size_t r, std::size_t c,
                        bool old_value, bool new_value) const;

 private:
  void require_window(const util::BitMatrix& data, std::size_t row0,
                      std::size_t col0) const;

  DiagonalGeometry geometry_;
};

}  // namespace pimecc::ecc
