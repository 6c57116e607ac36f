// pimecc -- oracle/reference_crossbar.hpp
//
// Bit-serial golden model of the MAGIC crossbar.
//
// This is the original scalar engine, retained verbatim (modulo the uniform
// validation shared with Crossbar): every lane of a parallel MAGIC
// operation is executed one bit at a time.  It exists purely as the
// reference in differential tests and benchmarks -- the production engine
// is the word-parallel Crossbar (crossbar.hpp), which must match this model
// bit-for-bit in contents, cycle counts, and violation counts on any
// program.  Keep the two classes' public APIs identical, but for the
// column write the oracle's processing crossbar needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"
#include "xbar/crossbar.hpp"  // OpResult
#include "xbar/magic.hpp"

namespace pimecc::xbar {

/// Bit-serial twin of Crossbar; see file comment.
class ReferenceCrossbar {
 public:
  ReferenceCrossbar(std::size_t n_rows, std::size_t n_cols);

  [[nodiscard]] std::size_t rows() const noexcept { return mat_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return mat_.cols(); }

  void write_row(std::size_t r, const util::BitVector& data);
  /// Writes a full column image (size must equal rows()): one cycle.  The
  /// processing crossbar's operand transfer (oracle/processing_xbar.hpp);
  /// Crossbar has no column write.
  void write_column(std::size_t c, const util::BitVector& data);

  [[nodiscard]] bool peek(std::size_t r, std::size_t c) const { return mat_.at(r, c); }
  void poke(std::size_t r, std::size_t c, bool v) { mat_.set(r, c, v); }
  [[nodiscard]] const util::BitMatrix& contents() const noexcept { return mat_; }
  [[nodiscard]] util::BitMatrix& contents_mutable() noexcept { return mat_; }

  void magic_init(Orientation o, std::span<const std::size_t> lines);
  OpResult magic_nor(Orientation o, std::span<const std::size_t> in_lines,
                     std::size_t out_line);

  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] std::uint64_t nor_ops() const noexcept { return nor_ops_; }
  [[nodiscard]] std::uint64_t init_cycles() const noexcept { return init_cycles_; }

 private:
  void check_line(Orientation o, std::size_t line, const char* what) const;
  [[nodiscard]] std::size_t lane_count(Orientation o) const noexcept {
    return o == Orientation::kRow ? rows() : cols();
  }

  util::BitMatrix mat_;
  std::uint64_t cycles_ = 0;
  std::uint64_t nor_ops_ = 0;
  std::uint64_t init_cycles_ = 0;
};

}  // namespace pimecc::xbar
