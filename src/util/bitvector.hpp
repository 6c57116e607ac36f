// pimecc -- util/bitvector.hpp
//
// Dense dynamic bit vector with word-parallel logic operations.
//
// BitVector is the storage primitive shared by the crossbar simulator
// (src/xbar), the ECC codecs (src/core), and the netlist evaluator
// (src/simpler).  It intentionally offers NOR as a first-class operation
// because MAGIC's native gate is NOR.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace pimecc::util {

/// Dense vector of bits backed by 64-bit words.
///
/// Indexing is bounds-checked in debug builds (assert) and by `at()` in all
/// builds.  Logic operations require equal sizes and throw
/// `std::invalid_argument` on mismatch; this is a programming error, not a
/// data error, so it is not part of the simulation result space.
class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;

  /// Constructs `size` bits, all zero.
  explicit BitVector(std::size_t size);

  /// Constructs `size` bits, all set to `value`.
  BitVector(std::size_t size, bool value);

  /// Parses a string of '0'/'1' characters, index 0 = leftmost character.
  /// Throws std::invalid_argument on any other character.
  static BitVector from_string(const std::string& bits);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // --- word-level access (the word-parallel engine's fast path) -----------
  /// Number of backing 64-bit words.
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  /// Read-only view of the backing words.  Bits at positions >= size() in
  /// the last word are guaranteed zero (class invariant).
  [[nodiscard]] std::span<const Word> words() const noexcept { return words_; }
  /// Mutable view of the backing words.  A caller that may set bits beyond
  /// size() must call sanitize() before using any other member.
  [[nodiscard]] std::span<Word> words_mutable() noexcept { return words_; }
  /// Re-establishes the padding invariant after raw word writes.
  void sanitize() noexcept { clear_padding(); }
  /// Overwrites word 0 and re-establishes the padding invariant, so stray
  /// bits at positions >= size() are discarded.  Requires size() > 0.
  void set_low_word(Word w) noexcept;

  /// Unchecked bit read (asserts in debug builds).
  [[nodiscard]] bool get(std::size_t i) const noexcept;
  /// Unchecked bit write (asserts in debug builds).
  void set(std::size_t i, bool value) noexcept;
  /// Checked bit read; throws std::out_of_range.
  [[nodiscard]] bool at(std::size_t i) const;
  /// Flips bit `i` and returns its new value.
  bool flip(std::size_t i) noexcept;

  /// Sets every bit to `value`.
  void fill(bool value) noexcept;

  /// Resizes to `size` bits; new bits are zero.
  void resize(std::size_t size);

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;
  /// XOR-reduction of all bits (even/odd parity).
  [[nodiscard]] bool parity() const noexcept;
  /// True if no bit is set.
  [[nodiscard]] bool none() const noexcept { return count() == 0; }
  /// True if at least one bit is set.
  [[nodiscard]] bool any() const noexcept { return !none(); }
  /// True if every bit is set.
  [[nodiscard]] bool all() const noexcept { return count() == size_; }

  /// Index of the lowest set bit, or `size()` if none.
  [[nodiscard]] std::size_t find_first() const noexcept;
  /// Index of the lowest set bit strictly above `i`, or `size()` if none.
  [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept;

  // Word-parallel logic; all require `other.size() == size()`.
  BitVector& operator^=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  /// In-place bitwise NOT.
  void invert() noexcept;
  /// this <- (this AND NOT mask) OR (src AND mask): keeps this where the
  /// mask is 0 and takes `src` where the mask is 1 (lane-masked update).
  BitVector& assign_masked(const BitVector& src, const BitVector& mask);
  /// True iff (this AND other) has at least one set bit; no allocation.
  [[nodiscard]] bool intersects(const BitVector& other) const;

  [[nodiscard]] friend BitVector operator^(BitVector a, const BitVector& b) {
    a ^= b;
    return a;
  }
  [[nodiscard]] friend BitVector operator|(BitVector a, const BitVector& b) {
    a |= b;
    return a;
  }
  [[nodiscard]] friend BitVector operator&(BitVector a, const BitVector& b) {
    a &= b;
    return a;
  }
  [[nodiscard]] friend BitVector operator~(BitVector a) {
    a.invert();
    return a;
  }

  bool operator==(const BitVector& other) const noexcept = default;

  /// Hamming distance to `other`; sizes must match.
  [[nodiscard]] std::size_t hamming_distance(const BitVector& other) const;

  /// '0'/'1' string, index 0 leftmost.
  [[nodiscard]] std::string to_string() const;

 private:
  static std::size_t words_for(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }
  /// Zeroes the unused high bits of the last word (class invariant).
  void clear_padding() noexcept;
  void require_same_size(const BitVector& other) const;

  std::vector<Word> words_;
  std::size_t size_ = 0;
};

}  // namespace pimecc::util
