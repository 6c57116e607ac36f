// pimecc -- oracle/reference_block_code.hpp
//
// Bit-serial golden model of the diagonal-parity block codec.
//
// This is the original scalar codec, retained verbatim: every parity is
// accumulated one BitMatrix::get at a time, and its syndrome rule is its
// own.  It exists purely as the reference in differential tests and
// benchmarks -- the production code is the word-parallel ArrayCode
// (core/array_code.hpp), whose encode and scrubs must match it block for
// block: the same CheckBits, the same verdicts and the same applied
// corrections on any input.
//
// The file also hosts the bit-serial reference accumulations for the other
// two parity codes, so their word-parallel paths are pinned the same way.
#pragma once

#include <cstddef>
#include <vector>

#include "core/array_code.hpp"  // CheckBits, DecodeResult, ScrubReport
#include "core/geometry.hpp"
#include "oracle/multislope_code.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::ecc {

/// Difference between recomputed and stored parity per diagonal; all-zero
/// means the block is consistent.
struct Syndrome {
  util::BitVector leading;
  util::BitVector counter;

  explicit Syndrome(std::size_t m = 0) : leading(m), counter(m) {}
  [[nodiscard]] bool clean() const noexcept { return leading.none() && counter.none(); }
  bool operator==(const Syndrome&) const noexcept = default;
};

/// Bit-serial per-block codec; see file comment.
class ReferenceBlockCodec {
 public:
  explicit ReferenceBlockCodec(std::size_t m) : geometry_(m) {}

  [[nodiscard]] std::size_t m() const noexcept { return geometry_.m(); }
  [[nodiscard]] const DiagonalGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] std::size_t check_bit_count() const noexcept { return 2 * m(); }
  [[nodiscard]] std::size_t cells_per_block() const noexcept {
    return m() * m() + 2 * m();
  }

  [[nodiscard]] CheckBits encode(const util::BitMatrix& data, std::size_t row0,
                                 std::size_t col0) const;

  [[nodiscard]] Syndrome compute_syndrome(const util::BitMatrix& data,
                                          std::size_t row0, std::size_t col0,
                                          const CheckBits& stored) const;

  [[nodiscard]] DecodeResult classify(const Syndrome& syndrome) const;

  DecodeResult check_and_correct(util::BitMatrix& data, std::size_t row0,
                                 std::size_t col0, CheckBits& stored) const;

  void update_for_write(CheckBits& check, std::size_t r, std::size_t c,
                        bool old_value, bool new_value) const;

 private:
  void require_window(const util::BitMatrix& data, std::size_t row0,
                      std::size_t col0) const;

  DiagonalGeometry geometry_;
};

/// Bit-serial whole-array scrub: ReferenceBlockCodec::check_and_correct on
/// every block of an (m*bps) x (m*bps) array, aggregated exactly like
/// ArrayCode::scrub.  `stored` is row-major over the block grid (bps*bps
/// entries) and is corrected in place alongside `data`.
[[nodiscard]] ScrubReport reference_scrub(const ReferenceBlockCodec& ref,
                                          util::BitMatrix& data,
                                          std::vector<CheckBits>& stored,
                                          std::size_t bps);

/// Bit-serial reference of MultiSlopeCodec::encode (per-cell line_of flips).
[[nodiscard]] MultiCheckBits reference_multislope_encode(
    const MultiSlopeCodec& codec, const util::BitMatrix& data, std::size_t row0,
    std::size_t col0);

/// Bit-serial reference of one HorizontalCode group parity: XOR of bits
/// [g*group_size, (g+1)*group_size) of row r.
[[nodiscard]] bool reference_horizontal_group_parity(const util::BitMatrix& data,
                                                     std::size_t r, std::size_t g,
                                                     std::size_t group_size);

}  // namespace pimecc::ecc
