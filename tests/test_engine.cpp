// Tests for the word-parallel execution engine: differential equivalence of
// Crossbar against the bit-serial ReferenceCrossbar golden model, uniform
// validation across external entry points, and thread-count determinism of
// the Monte Carlo reliability engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "oracle/reference_crossbar.hpp"
#include "reliability/montecarlo.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc::xbar {
namespace {

using util::BitVector;
using util::Rng;

// Chooses `k` distinct values in [0, limit) (partial Fisher-Yates).
std::vector<std::size_t> choose_distinct(Rng& rng, std::size_t limit,
                                         std::size_t k) {
  std::vector<std::size_t> pool(limit);
  for (std::size_t i = 0; i < limit; ++i) pool[i] = i;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k && i < limit; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_below(limit - i));
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

// Executes the same randomized MAGIC program (init/NOR/NOT, both
// orientations) on both engines and asserts identical
// contents, cycle counts, and per-op results after every operation.
void run_differential_program(std::uint64_t seed, std::size_t rows,
                              std::size_t cols, std::size_t steps) {
  Rng rng(seed);
  Crossbar fast(rows, cols);
  ReferenceCrossbar ref(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const bool v = rng.bernoulli(0.5);
      fast.poke(r, c, v);
      ref.poke(r, c, v);
    }
  }

  for (std::size_t step = 0; step < steps; ++step) {
    const Orientation o =
        rng.bernoulli(0.5) ? Orientation::kRow : Orientation::kColumn;
    const std::size_t line_limit = o == Orientation::kRow ? cols : rows;

    if (rng.bernoulli(0.3)) {
      const std::vector<std::size_t> lines = choose_distinct(
          rng, line_limit,
          1 + static_cast<std::size_t>(rng.uniform_below(std::min<std::size_t>(3, line_limit))));
      fast.magic_init(o, lines);
      ref.magic_init(o, lines);
    } else if (line_limit >= 2) {
      const std::size_t fan_in = std::min<std::size_t>(
          1 + static_cast<std::size_t>(rng.uniform_below(3)), line_limit - 1);
      std::vector<std::size_t> picks = choose_distinct(rng, line_limit, fan_in + 1);
      const std::size_t out_line = picks.back();
      picks.pop_back();
      // Initialize the output most of the time; the rest exercises the
      // violation-counting path.
      if (rng.bernoulli(0.7)) {
        const std::size_t out_lines[1] = {out_line};
        fast.magic_init(o, out_lines);
        ref.magic_init(o, out_lines);
      }
      const OpResult a = fast.magic_nor(o, picks, out_line);
      const OpResult b = ref.magic_nor(o, picks, out_line);
      EXPECT_EQ(a.lanes, b.lanes) << "step " << step;
      EXPECT_EQ(a.violations, b.violations) << "step " << step;
    }

    ASSERT_EQ(fast.contents(), ref.contents())
        << "divergence at step " << step << " seed " << seed << " (" << rows
        << "x" << cols << ")";
  }
  EXPECT_EQ(fast.cycles(), ref.cycles());
  EXPECT_EQ(fast.nor_ops(), ref.nor_ops());
  EXPECT_EQ(fast.init_cycles(), ref.init_cycles());
}

TEST(EngineDifferential, RandomProgramsMatchReference) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {9, 13}, {64, 64}, {70, 3}, {3, 70}, {33, 129}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const auto& [rows, cols] : shapes) {
      run_differential_program(seed, rows, cols, 120);
    }
  }
}

TEST(EngineDifferential, MagicNotMatchesReference) {
  Crossbar fast(5, 7);
  ReferenceCrossbar ref(5, 7);
  for (std::size_t r = 0; r < 5; ++r) {
    fast.poke(r, 2, r % 2 == 0);
    ref.poke(r, 2, r % 2 == 0);
  }
  const std::size_t out[1] = {4};
  fast.magic_init(Orientation::kRow, out);
  ref.magic_init(Orientation::kRow, out);
  const std::size_t in[1] = {2};
  const OpResult a = fast.magic_nor(Orientation::kRow, in, 4);
  const OpResult b = ref.magic_nor(Orientation::kRow, in, 4);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(fast.contents(), ref.contents());
}

// ---------------------------------------------------- uniform validation

TEST(CrossbarValidation, WriteColumnChecksIndexAndSize) {
  // The column write lives on the oracle crossbar (the processing
  // crossbar's operand transfer); Crossbar has none.
  ReferenceCrossbar xb(4, 6);
  EXPECT_THROW(xb.write_column(6, BitVector(4)), std::out_of_range);
  EXPECT_THROW(xb.write_column(0, BitVector(5)), std::invalid_argument);
  EXPECT_EQ(xb.cycles(), 0u);  // failed calls must not count cycles
}

TEST(CrossbarValidation, WriteRowChecksIndexBeforeSize) {
  Crossbar xb(4, 6);
  EXPECT_THROW(xb.write_row(4, BitVector(6)), std::out_of_range);
  EXPECT_THROW(xb.write_row(0, BitVector(7)), std::invalid_argument);
  EXPECT_EQ(xb.cycles(), 0u);
}

TEST(CrossbarValidation, ReferenceMatchesCrossbarOnBadArguments) {
  Crossbar fast(3, 3);
  ReferenceCrossbar ref(3, 3);
  const std::size_t ins[1] = {5};
  EXPECT_THROW(fast.magic_nor(Orientation::kRow, ins, 1), std::out_of_range);
  EXPECT_THROW(ref.magic_nor(Orientation::kRow, ins, 1), std::out_of_range);
  EXPECT_THROW(ref.write_column(3, BitVector(3)), std::out_of_range);
  EXPECT_THROW(ref.write_column(0, BitVector(2)), std::invalid_argument);
}

}  // namespace
}  // namespace pimecc::xbar

namespace pimecc::rel {
namespace {

TEST(MonteCarloDeterminism, ResultIndependentOfThreadCount) {
  MonteCarloConfig config;
  config.n = 60;
  config.m = 15;
  config.fit_per_bit = 3e6;
  config.window_hours = 24.0;
  config.trials = 64;

  std::vector<MonteCarloResult> results;
  std::vector<std::uint64_t> next_draws;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    util::Rng rng(0xDE7E12'11ull);
    results.push_back(run_montecarlo(config, rng));
    next_draws.push_back(rng.next());  // caller stream must advance identically
  }
  EXPECT_GT(results[0].trials_with_errors, 0u);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  EXPECT_EQ(next_draws[0], next_draws[1]);
  EXPECT_EQ(next_draws[0], next_draws[2]);
}

TEST(MonteCarloDeterminism, ZeroThreadsMeansHardwareConcurrency) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  config.fit_per_bit = 1e6;
  config.trials = 16;
  config.threads = 0;  // auto
  util::Rng auto_rng(99), one_rng(99);
  const MonteCarloResult auto_result = run_montecarlo(config, auto_rng);
  config.threads = 1;
  const MonteCarloResult one_result = run_montecarlo(config, one_rng);
  EXPECT_EQ(auto_result, one_result);
}

}  // namespace
}  // namespace pimecc::rel
