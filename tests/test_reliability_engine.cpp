// Differential and structural tests for the sparse event-driven
// reliability engine (ISSUE 5): the O(flips) Monte Carlo must reproduce
// the dense reference engine's counters exactly on every substream (with
// the documented `miscorrected` exact-vs-approximated exception), the
// undo-log rollback must reconstitute golden state across trials, and the
// skip-ahead lifetime engine must match the windowed walker in
// distribution and the analytic model in expectation.
//
// The ReliabilityEngineSmoke suite uses tiny configurations and is
// additionally registered under the `smoke;reliability` ctest labels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/array_code.hpp"
#include "fault/injector.hpp"
#include "oracle/reference_block_code.hpp"
#include "oracle/reference_reliability.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/montecarlo.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::rel {
namespace {

/// Copies a result with `miscorrected` zeroed: the sparse engine is exact
/// where the reference approximates, so equality is asserted on everything
/// else and the two miscorrection counters are compared by <= separately.
MonteCarloResult without_miscorrected(MonteCarloResult r) {
  r.miscorrected = 0;
  return r;
}

void expect_counters_match(const MonteCarloConfig& config, std::uint64_t seed) {
  util::Rng fast_rng(seed), ref_rng(seed);
  const MonteCarloResult fast = run_montecarlo(config, fast_rng);
  const MonteCarloResult ref = reference_run_montecarlo(config, ref_rng);
  EXPECT_EQ(without_miscorrected(fast), without_miscorrected(ref))
      << "n=" << config.n << " m=" << config.m << " seed=" << seed;
  EXPECT_LE(fast.miscorrected, ref.miscorrected);
  EXPECT_LE(fast.miscorrected, fast.blocks_failed);
  // Both consume exactly one draw from the caller's stream.
  EXPECT_EQ(fast_rng.next(), ref_rng.next());
}

// --------------------------------------------------------------- smoke

TEST(ReliabilityEngineSmoke, MontecarloMatchesReferenceTinyConfig) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  config.fit_per_bit = 1e6;
  config.trials = 40;
  config.threads = 2;
  expect_counters_match(config, 0x5E11ull);
}

TEST(ReliabilityEngineSmoke, LifetimeZeroRateMatchesReferenceExactly) {
  LifetimeConfig config;
  config.n = 15;
  config.m = 5;
  config.crossbars = 2;
  config.fit_per_bit = 0.0;
  config.scrub_period_hours = 24.0;
  config.max_hours = 100.0;  // not a multiple of the period: 5 windows
  config.trials = 7;
  util::Rng fast_rng(1), ref_rng(1);
  const LifetimeResult fast = simulate_lifetime(config, fast_rng);
  const LifetimeResult ref = reference_simulate_lifetime(config, ref_rng);
  EXPECT_EQ(fast.failures, 0u);
  EXPECT_EQ(ref.failures, 0u);
  EXPECT_EQ(fast.scrubs_performed, 7u * 5u);
  EXPECT_EQ(fast.scrubs_performed, ref.scrubs_performed);
  EXPECT_EQ(fast.errors_corrected, ref.errors_corrected);
}

TEST(ReliabilityEngineSmoke, LifetimeCertainFailureMatchesReferenceExactly) {
  // p_window == 1: every cell errs every window, so both engines must fail
  // every trial at the very first scrub.
  LifetimeConfig config;
  config.n = 15;
  config.m = 15;
  config.crossbars = 1;
  config.fit_per_bit = 1e12;
  config.scrub_period_hours = 24.0;
  config.max_hours = 24.0 * 50;
  config.trials = 5;
  util::Rng fast_rng(2), ref_rng(2);
  const LifetimeResult fast = simulate_lifetime(config, fast_rng);
  const LifetimeResult ref = reference_simulate_lifetime(config, ref_rng);
  for (const LifetimeResult* r : {&fast, &ref}) {
    EXPECT_EQ(r->failures, 5u);
    EXPECT_EQ(r->scrubs_performed, 5u);
    EXPECT_EQ(r->errors_corrected, 0u);
    EXPECT_DOUBLE_EQ(r->time_to_failure_hours.mean(), 24.0);
    EXPECT_DOUBLE_EQ(r->time_to_failure_hours.min(), 24.0);
    EXPECT_DOUBLE_EQ(r->time_to_failure_hours.max(), 24.0);
  }
}

TEST(ReliabilityEngineSmoke, ScrubBlockAgreesWithCheckBlock) {
  // Randomized differential: inject 0-3 faults into one block, scrub it
  // via scrub_block and via the bit-serial reference codec's
  // check_and_correct on independent copies, and require identical verdicts
  // and identical repaired state -- one-word segments at m=5, two-word ones
  // at m=65.
  util::Rng rng(3);
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = round < 60 ? 15 : 130;
    const std::size_t m = round < 60 ? 5 : 65;
    util::BitMatrix data = util::random_bit_matrix(n, n, rng);
    ecc::ArrayCode code(n, m);
    code.encode_all(data);
    const std::size_t br = rng.uniform_below(n / m);
    const std::size_t bc = rng.uniform_below(n / m);
    const std::size_t faults = rng.uniform_below(4);
    fault::inject_block_flips(rng, data, code, br, bc, faults, true);

    util::BitMatrix data2 = data;
    ecc::ArrayCode code2 = code;
    const ecc::BlockRepair repair = code.scrub_block(data, {br, bc});
    ecc::CheckBits stored2 = code2.check_bits({br, bc});
    const ecc::DecodeResult decode = ecc::ReferenceBlockCodec(m)
        .check_and_correct(data2, br * m, bc * m, stored2);
    code2.set_check_bits({br, bc}, stored2);
    EXPECT_EQ(repair.status, decode.status);
    if (decode.data_error) {
      EXPECT_EQ(repair.data_r, br * m + decode.data_error->r);
      EXPECT_EQ(repair.data_c, bc * m + decode.data_error->c);
    }
    if (decode.check_error) {
      EXPECT_EQ(repair.check_on_leading_axis, decode.check_error->on_leading_axis);
      EXPECT_EQ(repair.check_index, decode.check_error->index);
    }
    EXPECT_EQ(data, data2);
    EXPECT_EQ(code.check_bits({br, bc}), code2.check_bits({br, bc}));
  }
}

TEST(ReliabilityEngineSmoke, ScrubBlockValidates) {
  util::BitMatrix data(15, 15);
  ecc::ArrayCode code(15, 5);
  code.encode_all(data);
  EXPECT_THROW((void)code.scrub_block(data, {3, 0}), std::out_of_range);
  util::BitMatrix wrong(10, 10);
  EXPECT_THROW((void)code.scrub_block(wrong, {0, 0}), std::invalid_argument);
}

// --------------------------------------------------- montecarlo engine

TEST(MonteCarloEngine, MatchesReferenceAcrossConfigs) {
  // The rollback is exercised hard: at these rates most trials carry
  // multiple flips (incl. uncorrectable doubles and miscorrection-capable
  // triples), and any residue left by trial t corrupts every later trial's
  // counters -- so multi-trial equality pins the undo log, not just the
  // scrub.
  struct Case {
    std::size_t n, m;
    double fit;
    bool check_bits;
  };
  const Case cases[] = {
      {60, 15, 3e6, true},
      {45, 9, 1e7, true},
      {66, 3, 2e6, false},
      {40, 5, 5e7, true},  // heavy: ~2 flips per block on average
  };
  for (const Case& c : cases) {
    MonteCarloConfig config;
    config.n = c.n;
    config.m = c.m;
    config.fit_per_bit = c.fit;
    config.include_check_bits = c.check_bits;
    config.trials = 150;
    for (const std::uint64_t seed : {1ull, 77ull, 0xABCDull}) {
      expect_counters_match(config, seed);
    }
  }
}

TEST(MonteCarloEngine, ExactMiscorrectionIsStrictlyBelowApproximationSomewhere) {
  // At m=3 with heavy injection, trials with one failed (uncorrectable)
  // block and an unrelated successful correction are common; the reference
  // counts those blocks as miscorrected, the exact accounting must not.
  MonteCarloConfig config;
  config.n = 30;
  config.m = 3;
  config.fit_per_bit = 2e7;
  config.trials = 400;
  util::Rng fast_rng(11), ref_rng(11);
  const MonteCarloResult fast = run_montecarlo(config, fast_rng);
  const MonteCarloResult ref = reference_run_montecarlo(config, ref_rng);
  EXPECT_GT(ref.miscorrected, 0u);
  EXPECT_LT(fast.miscorrected, ref.miscorrected);
  EXPECT_LE(fast.miscorrected, fast.blocks_failed);
}

TEST(MonteCarloEngine, ValidatesWindowHoursBeforeRunning) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  for (const double bad : {0.0, -24.0}) {
    config.window_hours = bad;
    util::Rng rng(1);
    EXPECT_THROW((void)run_montecarlo(config, rng), std::invalid_argument);
    EXPECT_THROW((void)reference_run_montecarlo(config, rng), std::invalid_argument);
    // Validation happens before the base-seed draw: the stream is untouched.
    util::Rng fresh(1);
    EXPECT_EQ(rng.next(), fresh.next());
  }
  config.window_hours = 24.0;
  config.fit_per_bit = -1.0;
  util::Rng rng(1);
  EXPECT_THROW((void)run_montecarlo(config, rng), std::invalid_argument);
}

TEST(MonteCarloEngine, ReferenceEngineIsThreadCountInvariantToo) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  config.fit_per_bit = 1e6;
  config.trials = 32;
  config.threads = 1;
  util::Rng a(5), b(5);
  const MonteCarloResult one = reference_run_montecarlo(config, a);
  config.threads = 4;
  const MonteCarloResult four = reference_run_montecarlo(config, b);
  EXPECT_EQ(one, four);
}

// ----------------------------------------------------- lifetime engine

TEST(LifetimeEngine, SkipAheadTracksReferenceFailureRate) {
  // Both engines sample the same process (iid windows, binomial hits,
  // uniform block assignment), so over many trials the failure proportions
  // must agree within binomial noise.  P(fail by the horizon) ~ 0.66 here;
  // 400 trials apiece puts sigma(diff) ~ 0.033, and the 4.5-sigma band
  // keeps seed-driven flakes out while still catching any systematic bias.
  LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 4;
  config.fit_per_bit = 1e4;  // analytic MTTF ~ 221 h
  config.scrub_period_hours = 24.0;
  config.max_hours = 240.0;
  config.trials = 400;
  util::Rng fast_rng(7), ref_rng(7);
  const LifetimeResult fast = simulate_lifetime(config, fast_rng);
  const LifetimeResult ref = reference_simulate_lifetime(config, ref_rng);
  const double n = static_cast<double>(config.trials);
  const double pf = static_cast<double>(fast.failures) / n;
  const double pr = static_cast<double>(ref.failures) / n;
  const double sigma = std::sqrt((pf * (1 - pf) + pr * (1 - pr)) / n);
  EXPECT_GT(fast.failures, 0u);
  EXPECT_NEAR(pf, pr, 4.5 * sigma + 1e-9);
  // Corrected-error volume must agree too (same event process).
  const double cf = static_cast<double>(fast.errors_corrected) / n;
  const double cr = static_cast<double>(ref.errors_corrected) / n;
  EXPECT_NEAR(cf, cr, 0.15 * (cf + cr) / 2 + 1.0);
}

TEST(LifetimeEngine, SkipAheadAndReferenceBothTrackAnalyticMttf) {
  LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 4;
  config.fit_per_bit = 1e4;
  config.trials = 300;
  config.max_hours = 24.0 * 2000;
  const double analytic = analytic_mttf_hours(config);
  util::Rng fast_rng(9), ref_rng(9);
  const double fast = simulate_lifetime(config, fast_rng)
                          .empirical_mttf_hours(config.max_hours);
  const double ref = reference_simulate_lifetime(config, ref_rng)
                         .empirical_mttf_hours(config.max_hours);
  EXPECT_NEAR(fast / analytic, 1.0, 0.2);
  EXPECT_NEAR(ref / analytic, 1.0, 0.2);
  EXPECT_NEAR(fast / ref, 1.0, 0.25);
}

TEST(LifetimeEngine, ResultIndependentOfThreadCount) {
  LifetimeConfig config;
  config.n = 60;
  config.m = 15;
  config.crossbars = 2;
  config.fit_per_bit = 1e4;
  config.max_hours = 24.0 * 500;
  config.trials = 64;
  std::vector<LifetimeResult> results;
  std::vector<std::uint64_t> next_draws;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    util::Rng rng(0x11FE'711ull);
    results.push_back(simulate_lifetime(config, rng));
    next_draws.push_back(rng.next());  // caller stream must advance identically
  }
  EXPECT_GT(results[0].failures, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].failures, results[i].failures);
    EXPECT_EQ(results[0].scrubs_performed, results[i].scrubs_performed);
    EXPECT_EQ(results[0].errors_corrected, results[i].errors_corrected);
    // RunningStats folded in trial order after the join: bit-identical.
    EXPECT_EQ(results[0].time_to_failure_hours.count(),
              results[i].time_to_failure_hours.count());
    EXPECT_EQ(results[0].time_to_failure_hours.mean(),
              results[i].time_to_failure_hours.mean());
    EXPECT_EQ(results[0].time_to_failure_hours.stddev(),
              results[i].time_to_failure_hours.stddev());
    EXPECT_EQ(next_draws[0], next_draws[i]);
  }
}

TEST(LifetimeEngine, ValidatesConfigBeforeDrawing) {
  util::Rng rng(1);
  LifetimeConfig config;
  config.max_hours = 0.0;
  EXPECT_THROW((void)simulate_lifetime(config, rng), std::invalid_argument);
  config = LifetimeConfig{};
  // An infinite horizon must be rejected up front, not spun on forever.
  config.max_hours = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)simulate_lifetime(config, rng), std::invalid_argument);
  config = LifetimeConfig{};
  config.fit_per_bit = -1.0;
  EXPECT_THROW((void)simulate_lifetime(config, rng), std::invalid_argument);
  util::Rng fresh(1);
  EXPECT_EQ(rng.next(), fresh.next());
}

TEST(LifetimeEngine, EmpiricalMttfHandComputedCensoredExample) {
  // 4 trials against a 1000 h horizon: two fail at 100 h and 200 h, two
  // survive (censored at the full horizon).  Exposure-based MLE:
  // (100 + 200 + 2 * 1000) / 2 = 1150 h.
  LifetimeResult result;
  result.trials = 4;
  result.failures = 2;
  result.time_to_failure_hours.add(100.0);
  result.time_to_failure_hours.add(200.0);
  EXPECT_DOUBLE_EQ(result.empirical_mttf_hours(1000.0), 1150.0);
  // failures == 0 convention: total exposure, horizon * trials.
  LifetimeResult censored;
  censored.trials = 4;
  EXPECT_DOUBLE_EQ(censored.empirical_mttf_hours(1000.0), 4000.0);
}

}  // namespace
}  // namespace pimecc::rel
