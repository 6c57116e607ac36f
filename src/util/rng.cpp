#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bitmatrix.hpp"
#include "util/bitvector.hpp"

namespace pimecc::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

void Rng::set_state(const State& state) {
  if ((state[0] | state[1] | state[2] | state[3]) == 0) {
    throw std::invalid_argument("Rng::set_state: all-zero state is invalid");
  }
  for (std::size_t i = 0; i < 4; ++i) state_[i] = state[i];
}

Rng Rng::for_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Hash the (seed, stream) pair into a fresh SplitMix64 starting point so
  // consecutive stream indices yield decorrelated xoshiro states.  Also
  // distinct from reseed(seed) itself (stream 0 included) because the seed
  // is mixed once before the stream is folded in.
  std::uint64_t sm = seed;
  sm = splitmix64(sm) ^ (stream * 0xD1342543DE82EF95ull + 0x9E3779B97F4A7C15ull);
  Rng r;
  for (auto& s : r.state_) s = splitmix64(sm);
  if ((r.state_[0] | r.state_[1] | r.state_[2] | r.state_[3]) == 0) r.state_[0] = 1;
  return r;
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  if (bound == 0) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;
  while (true) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() noexcept {
  // 53-bit mantissa construction.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  p = std::clamp(p, 0.0, 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  std::binomial_distribution<std::uint64_t> dist(n, p);
  return dist(*this);
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return ~std::uint64_t{0};
  // Inversion of the survival function: G = floor(ln U / ln(1-p)) with
  // U in (0, 1]; uniform01() is [0, 1), so flip it.
  const double u = 1.0 - uniform01();
  const double g = std::floor(std::log(u) / std::log1p(-p));
  // NaN (0/0 for u == 1... cannot happen; guard anyway) and values at or
  // beyond 2^64 saturate.
  if (!(g < 18446744073709551615.0)) return ~std::uint64_t{0};
  return g <= 0.0 ? 0 : static_cast<std::uint64_t>(g);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  std::poisson_distribution<std::uint64_t> dist(mean);
  return dist(*this);
}

void fill_random(BitVector& bits, Rng& rng) {
  // Drawn from a local copy: the words written could alias the caller's
  // generator state, which would pin that state in memory.
  Rng local = rng;
  for (auto& word : bits.words_mutable()) word = local.next();
  rng = local;
  bits.sanitize();
}

void fill_random(BitMatrix& mat, Rng& rng) {
  for (BitVector& row : mat.rows_span()) fill_random(row, rng);
}

BitMatrix random_bit_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  BitMatrix mat(rows, cols);
  fill_random(mat, rng);
  return mat;
}

}  // namespace pimecc::util
