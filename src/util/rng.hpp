// pimecc -- util/rng.hpp
//
// Deterministic, seedable PRNG (xoshiro256**) satisfying
// std::uniform_random_bit_generator so the standard distributions compose
// with it.  All stochastic simulation in pimecc routes through this type so
// experiments are reproducible from a single seed.  next() is defined here,
// inline, because every bulk fill and Monte Carlo trial draws one word per
// call; the fill_random helpers below write into a caller's container, so a
// request that keeps its buffers draws its image and inputs without
// allocating.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <random>

namespace pimecc::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded through SplitMix64.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// The full generator state.  next() is a pure function of these four
  /// words, so state()/set_state() round-trips reproduce the stream
  /// position exactly -- the checkpoint formats (arch/checkpoint,
  /// reliability/lifetime) persist this to make long simulations
  /// resumable.  Note the sampling helpers that delegate to <random>
  /// distributions (binomial, poisson) construct a fresh distribution per
  /// call, so no distribution-internal cache exists outside state_ and a
  /// restored Rng continues bit-identically.
  using State = std::array<std::uint64_t, 4>;

  /// Default seed chosen arbitrarily but fixed for reproducibility.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initializes the state deterministically from `seed`.
  void reseed(std::uint64_t seed);

  /// Advances the state by 2^128 next() calls (canonical xoshiro256** jump
  /// polynomial): partitions one seed into non-overlapping substreams for
  /// long-lived parallel generators.
  void jump() noexcept;
  /// Advances the state by 2^192 next() calls, for coarser partitions of
  /// partitions (each long_jump() leaves room for 2^64 jump() substreams).
  void long_jump() noexcept;
  /// O(1) per-stream generator: hashes (seed, stream) through SplitMix64 so
  /// any trial/worker index maps to an independent deterministic substream
  /// regardless of how work is distributed across threads.
  [[nodiscard]] static Rng for_stream(std::uint64_t seed,
                                      std::uint64_t stream) noexcept;

  /// Captures the exact stream position (see State).
  [[nodiscard]] State state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  /// Restores a captured stream position.  Throws std::invalid_argument on
  /// the all-zero state, which is not reachable from any seed and would
  /// lock the generator at zero forever.
  void set_state(const State& state);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() noexcept { return next(); }
  /// One xoshiro256** step.  Inline: the bulk fills (fill_random) and the
  /// Monte Carlo engines draw one word per call in their hot loops.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); bound must be > 0 (asserted by modulo
  /// rejection sampling being well-defined).
  [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Binomial sample: number of successes in n trials of probability p.
  /// Delegates to std::binomial_distribution (exact).
  [[nodiscard]] std::uint64_t binomial(std::uint64_t n, double p);

  /// Geometric sample: number of failures before the first success in iid
  /// Bernoulli(p) trials (support {0, 1, ...}), by inversion -- exactly one
  /// next() draw.  The skip-ahead lifetime engine uses this to jump directly
  /// to the next non-empty scrub window.  p >= 1 returns 0; p <= 0 (success
  /// impossible) returns the max std::uint64_t, which callers must treat as
  /// "beyond any horizon"; results too large to represent saturate the same
  /// way.
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// Poisson sample with the given mean.
  [[nodiscard]] std::uint64_t poisson(double mean);

 private:
  /// Polynomial-jump state advance shared by jump()/long_jump().
  void advance_by(const std::uint64_t (&polynomial)[4]) noexcept;

  std::uint64_t state_[4] = {};
};

class BitMatrix;
class BitVector;

/// Fills `bits` with uniform random bits, word-parallel: one next() draw
/// per backing 64-bit word (NOT one per bit -- callers relying on draw
/// counts must not mix this with per-bit bernoulli fills).  The shared fill
/// discipline of the engine benches and differential harnesses; the bulk
/// loader CrossbarFleet::load_random draws ONE base seed from the caller
/// and runs this over for_stream substreams, one per shard, so images are
/// bit-identical at any worker count.
void fill_random(BitVector& bits, Rng& rng);

/// Overwrites every row of `mat` in row order (fill_random per row), in
/// place: a caller that keeps the matrix (BitMatrix::reshape) refills it
/// without allocating.
void fill_random(BitMatrix& mat, Rng& rng);

/// A fresh rows x cols matrix drawn as fill_random(BitMatrix&) draws it.
[[nodiscard]] BitMatrix random_bit_matrix(std::size_t rows, std::size_t cols,
                                          Rng& rng);

}  // namespace pimecc::util
