#include "core/geometry.hpp"

namespace pimecc::ecc {

namespace diagword {

std::uint64_t extract(std::span<const std::uint64_t> words, std::size_t bit0,
                      std::size_t m) noexcept {
  return util::simd::extract(words.data(), bit0, m);
}

}  // namespace diagword

DiagonalGeometry::DiagonalGeometry(std::size_t m) : m_(m), inv2_(0) {
  if (m == 0 || !util::is_odd(static_cast<std::int64_t>(m))) {
    throw std::invalid_argument(
        "DiagonalGeometry: block size m must be odd (paper footnote 1)");
  }
  inv2_ = static_cast<std::size_t>(util::inverse_of_two(static_cast<std::int64_t>(m)));
}

Cell DiagonalGeometry::locate(DiagonalPair d) const {
  if (d.leading >= m_ || d.counter >= m_) {
    throw std::out_of_range("DiagonalGeometry::locate: diagonal index out of range");
  }
  // r = (a + b) * inv2 mod m,  c = (a - b) * inv2 mod m.
  const auto a = static_cast<std::int64_t>(d.leading);
  const auto b = static_cast<std::int64_t>(d.counter);
  const auto mm = static_cast<std::int64_t>(m_);
  const auto inv2 = static_cast<std::int64_t>(inv2_);
  const std::int64_t r = util::floor_mod((a + b) * inv2, mm);
  const std::int64_t c = util::floor_mod((a - b) * inv2, mm);
  return {static_cast<std::size_t>(r), static_cast<std::size_t>(c)};
}

}  // namespace pimecc::ecc
