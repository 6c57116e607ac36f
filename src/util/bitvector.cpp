#include "util/bitvector.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace pimecc::util {

BitVector::BitVector(std::size_t size) : words_(words_for(size), 0), size_(size) {}

BitVector::BitVector(std::size_t size, bool value)
    : words_(words_for(size), value ? ~Word{0} : Word{0}), size_(size) {
  clear_padding();
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.set(i, true);
    } else if (bits[i] != '0') {
      throw std::invalid_argument("BitVector::from_string: invalid character");
    }
  }
  return v;
}

bool BitVector::get(std::size_t i) const noexcept {
  assert(i < size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::set(std::size_t i, bool value) noexcept {
  assert(i < size_);
  const Word mask = Word{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

bool BitVector::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVector::at: index out of range");
  return get(i);
}

bool BitVector::flip(std::size_t i) noexcept {
  assert(i < size_);
  words_[i / kWordBits] ^= Word{1} << (i % kWordBits);
  return get(i);
}

void BitVector::set_low_word(Word w) noexcept {
  assert(!words_.empty());
  words_[0] = w;
  clear_padding();
}

void BitVector::fill(bool value) noexcept {
  for (auto& w : words_) w = value ? ~Word{0} : Word{0};
  clear_padding();
}

void BitVector::resize(std::size_t size) {
  words_.resize(words_for(size), 0);
  size_ = size;
  clear_padding();
}

std::size_t BitVector::count() const noexcept {
  std::size_t total = 0;
  for (const Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool BitVector::parity() const noexcept {
  Word acc = 0;
  for (const Word w : words_) acc ^= w;
  return (std::popcount(acc) & 1) != 0;
}

std::size_t BitVector::find_first() const noexcept {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    if (words_[wi] != 0) {
      return wi * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[wi]));
    }
  }
  return size_;
}

std::size_t BitVector::find_next(std::size_t i) const noexcept {
  ++i;
  if (i >= size_) return size_;
  std::size_t wi = i / kWordBits;
  Word w = words_[wi] & (~Word{0} << (i % kWordBits));
  while (true) {
    if (w != 0) {
      const std::size_t pos = wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
      return pos < size_ ? pos : size_;
    }
    if (++wi == words_.size()) return size_;
    w = words_[wi];
  }
}

BitVector& BitVector::operator^=(const BitVector& other) {
  require_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  require_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  require_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

void BitVector::invert() noexcept {
  for (auto& w : words_) w = ~w;
  clear_padding();
}

BitVector& BitVector::assign_masked(const BitVector& src, const BitVector& mask) {
  require_same_size(src);
  require_same_size(mask);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = (words_[i] & ~mask.words_[i]) | (src.words_[i] & mask.words_[i]);
  }
  return *this;
}

bool BitVector::intersects(const BitVector& other) const {
  require_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  require_same_size(other);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return total;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

void BitVector::clear_padding() noexcept {
  const std::size_t used = size_ % kWordBits;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << used) - 1;
  }
}

void BitVector::require_same_size(const BitVector& other) const {
  if (other.size_ != size_) {
    throw std::invalid_argument("BitVector: size mismatch in logic operation");
  }
}

}  // namespace pimecc::util
