#include "oracle/shifter.hpp"

#include <stdexcept>

#include "util/modmath.hpp"

namespace pimecc::arch {

ShifterBank::ShifterBank(std::size_t n, std::size_t m) : n_(n), m_(m) {
  if (n == 0 || m == 0 || n % m != 0) {
    throw std::invalid_argument("ShifterBank: m must divide n (both positive)");
  }
}

std::vector<util::BitVector> ShifterBank::route(const util::BitVector& line,
                                                std::size_t shift,
                                                bool reversed) const {
  if (line.size() != n_) {
    throw std::invalid_argument("ShifterBank::route: line must have length n");
  }
  shift %= m_;
  std::vector<util::BitVector> out(m_, util::BitVector(groups()));
  for (std::size_t d = 0; d < m_; ++d) {
    const std::int64_t dir = reversed ? -static_cast<std::int64_t>(d)
                                      : static_cast<std::int64_t>(d);
    const std::size_t offset = static_cast<std::size_t>(util::floor_mod(
        dir - static_cast<std::int64_t>(shift), static_cast<std::int64_t>(m_)));
    for (std::size_t g = 0; g < groups(); ++g) {
      out[d].set(g, line.get(g * m_ + offset));
    }
  }
  return out;
}

util::BitVector ShifterBank::unroute(
    const std::vector<util::BitVector>& diagonal_vectors, std::size_t shift,
    bool reversed) const {
  if (diagonal_vectors.size() != m_) {
    throw std::invalid_argument("ShifterBank::unroute: need exactly m vectors");
  }
  shift %= m_;
  util::BitVector line(n_);
  for (std::size_t d = 0; d < m_; ++d) {
    if (diagonal_vectors[d].size() != groups()) {
      throw std::invalid_argument("ShifterBank::unroute: vector length mismatch");
    }
    const std::int64_t dir = reversed ? -static_cast<std::int64_t>(d)
                                      : static_cast<std::int64_t>(d);
    const std::size_t offset = static_cast<std::size_t>(util::floor_mod(
        dir - static_cast<std::int64_t>(shift), static_cast<std::int64_t>(m_)));
    for (std::size_t g = 0; g < groups(); ++g) {
      line.set(g * m_ + offset, diagonal_vectors[d].get(g));
    }
  }
  return line;
}

}  // namespace pimecc::arch
