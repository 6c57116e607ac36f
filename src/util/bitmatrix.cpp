#include "util/bitmatrix.hpp"

#include <cassert>
#include <stdexcept>

namespace pimecc::util {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_storage_(rows, BitVector(cols)), rows_(rows), cols_(cols) {}

void BitMatrix::reshape(std::size_t rows, std::size_t cols) {
  rows_storage_.resize(rows);
  for (BitVector& row : rows_storage_) {
    row.resize(cols);
    row.fill(false);
  }
  rows_ = rows;
  cols_ = cols;
}

bool BitMatrix::get(std::size_t r, std::size_t c) const noexcept {
  assert(r < rows_ && c < cols_);
  return rows_storage_[r].get(c);
}

void BitMatrix::set(std::size_t r, std::size_t c, bool value) noexcept {
  assert(r < rows_ && c < cols_);
  rows_storage_[r].set(c, value);
}

bool BitMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("BitMatrix::at: index out of range");
  }
  return get(r, c);
}

bool BitMatrix::flip(std::size_t r, std::size_t c) noexcept {
  assert(r < rows_ && c < cols_);
  return rows_storage_[r].flip(c);
}

const BitVector& BitMatrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("BitMatrix::row: index out of range");
  return rows_storage_[r];
}

BitVector& BitMatrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("BitMatrix::row: index out of range");
  return rows_storage_[r];
}

BitVector BitMatrix::column(std::size_t c) const {
  BitVector v;
  column_into(c, v);
  return v;
}

void BitMatrix::column_into(std::size_t c, BitVector& out) const {
  // Validate before touching `out`: a throwing call must not clobber the
  // caller's buffer.
  if (c >= cols_) {
    throw std::out_of_range("BitMatrix::column_into: index out of range");
  }
  out.resize(rows_);
  if (rows_ == 0) return;
  // Single pass: accumulate one output word at a time and store it whole,
  // without a zero-fill + OR double walk (a narrow protected init peels one
  // column per init line; wide inits and row-parallel NORs take their
  // check-bit deltas from row-major passes instead).
  const std::size_t wi = c / BitVector::kWordBits;
  const unsigned shift = static_cast<unsigned>(c % BitVector::kWordBits);
  const std::span<BitVector::Word> out_words = out.words_mutable();
  BitVector::Word acc = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    acc |= ((rows_storage_[r].words()[wi] >> shift) & 1u)
           << (r % BitVector::kWordBits);
    if ((r + 1) % BitVector::kWordBits == 0) {
      out_words[r / BitVector::kWordBits] = acc;
      acc = 0;
    }
  }
  if (rows_ % BitVector::kWordBits != 0) {
    out_words[(rows_ - 1) / BitVector::kWordBits] = acc;
  }
}

void BitMatrix::set_column(std::size_t c, const BitVector& values) {
  if (c >= cols_) throw std::out_of_range("BitMatrix::set_column: index out of range");
  if (values.size() != rows_) {
    throw std::invalid_argument("BitMatrix::set_column: length mismatch");
  }
  const std::size_t wi = c / BitVector::kWordBits;
  const unsigned shift = static_cast<unsigned>(c % BitVector::kWordBits);
  const BitVector::Word mask = BitVector::Word{1} << shift;
  const std::span<const BitVector::Word> value_words = values.words();
  for (std::size_t r = 0; r < rows_; ++r) {
    const BitVector::Word bit =
        (value_words[r / BitVector::kWordBits] >> (r % BitVector::kWordBits)) & 1u;
    BitVector::Word& w = rows_storage_[r].words_mutable()[wi];
    w = (w & ~mask) | (bit << shift);
  }
}

void BitMatrix::fill(bool value) noexcept {
  for (auto& row_vec : rows_storage_) row_vec.fill(value);
}

std::size_t BitMatrix::count() const noexcept {
  std::size_t total = 0;
  for (const auto& row_vec : rows_storage_) total += row_vec.count();
  return total;
}

std::size_t BitMatrix::hamming_distance(const BitMatrix& other) const {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("BitMatrix::hamming_distance: shape mismatch");
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    total += rows_storage_[r].hamming_distance(other.rows_storage_[r]);
  }
  return total;
}

}  // namespace pimecc::util
