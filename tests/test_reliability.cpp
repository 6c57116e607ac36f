// Tests for src/reliability: closed-form Section V-A model and the Monte
// Carlo cross-validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "reliability/analytic.hpp"
#include "reliability/montecarlo.hpp"
#include "util/rng.hpp"

namespace pimecc::rel {
namespace {

TEST(Analytic, ValidatesQuery) {
  ReliabilityQuery q;
  q.m = 14;  // even
  EXPECT_THROW((void)evaluate_proposed(q), std::invalid_argument);
  q = ReliabilityQuery{};
  q.check_period_hours = 0.0;
  EXPECT_THROW((void)evaluate_baseline(q), std::invalid_argument);
  q = ReliabilityQuery{};
  q.fit_per_bit = -1.0;
  EXPECT_THROW((void)evaluate_proposed(q), std::invalid_argument);
}

TEST(Analytic, ZeroRateGivesInfiniteMttf) {
  ReliabilityQuery q;
  q.fit_per_bit = 0.0;
  EXPECT_TRUE(std::isinf(evaluate_baseline(q).mttf_hours));
  EXPECT_TRUE(std::isinf(evaluate_proposed(q).mttf_hours));
}

TEST(Analytic, BaselineMatchesFirstOrderApproximation) {
  // In the tiny-p regime, P(mem fail) ~ bits * p and FIT ~ bits * lambda.
  ReliabilityQuery q;
  q.fit_per_bit = 1e-3;
  const ReliabilityPoint pt = evaluate_baseline(q);
  const double bits = static_cast<double>(q.memory_bits);
  EXPECT_NEAR(pt.memory_fit, bits * 1e-3, bits * 1e-3 * 0.15);
}

TEST(Analytic, PaperHeadlineImprovementAtFlashSer) {
  // Paper Section V-A: at 1e-3 FIT/bit the improvement factor is ~3e8
  // ("over 3*10^8"); with check-bit memristors included in the vulnerable
  // population ours lands slightly lower.  Accept the decade.
  ReliabilityQuery q;
  q.fit_per_bit = 1e-3;
  const double base = evaluate_baseline(q).mttf_hours;
  const double prop = evaluate_proposed(q).mttf_hours;
  const double improvement = prop / base;
  EXPECT_GT(improvement, 1e8);
  EXPECT_LT(improvement, 1e9);
  // Without check-bit vulnerability (the paper's stricter reading) the
  // factor exceeds 3e8.
  q.include_check_bits = false;
  const double paper_reading = evaluate_proposed(q).mttf_hours / base;
  EXPECT_GT(paper_reading, 3e8);
}

TEST(Analytic, EightOrdersOfMagnitudeAcrossTheFigureSweep) {
  ReliabilityQuery q;
  for (const double fit : {1e-5, 1e-4, 1e-3}) {
    q.fit_per_bit = fit;
    const double improvement = evaluate_proposed(q).mttf_hours /
                               evaluate_baseline(q).mttf_hours;
    EXPECT_GT(improvement, 1e8) << "fit " << fit;
  }
}

TEST(Analytic, MttfDecreasesWithRate) {
  ReliabilityQuery q;
  double prev_base = std::numeric_limits<double>::infinity();
  double prev_prop = std::numeric_limits<double>::infinity();
  for (const double fit : {1e-5, 1e-3, 1e-1, 1e1, 1e3}) {
    q.fit_per_bit = fit;
    const double base = evaluate_baseline(q).mttf_hours;
    const double prop = evaluate_proposed(q).mttf_hours;
    EXPECT_LE(base, prev_base);
    EXPECT_LE(prop, prev_prop);
    EXPECT_GE(prop, base);  // ECC never hurts
    prev_base = base;
    prev_prop = prop;
  }
}

TEST(Analytic, SmallerBlocksAreMoreReliable) {
  // The Section III trade-off: smaller m -> higher reliability.
  ReliabilityQuery q;
  q.fit_per_bit = 1e-1;
  double prev = 0.0;
  for (const std::size_t m : {255u, 85u, 51u, 17u, 15u, 5u, 3u}) {
    q.m = m;
    const double mttf = evaluate_proposed(q).mttf_hours;
    EXPECT_GT(mttf, prev) << "m " << m;
    prev = mttf;
  }
}

TEST(Analytic, ShorterCheckPeriodImprovesMttf) {
  ReliabilityQuery q;
  q.fit_per_bit = 1e-1;
  q.check_period_hours = 24.0;
  const double day = evaluate_proposed(q).mttf_hours;
  q.check_period_hours = 1.0;
  const double hour = evaluate_proposed(q).mttf_hours;
  EXPECT_GT(hour, day);
}

TEST(Analytic, SweepCoversTheRequestedDecades) {
  const auto sweep = sweep_mttf(ReliabilityQuery{}, 1e-5, 1e3, 1);
  ASSERT_EQ(sweep.size(), 9u);  // 1e-5 .. 1e3 inclusive, one per decade
  EXPECT_NEAR(sweep.front().fit_per_bit, 1e-5, 1e-8);
  EXPECT_NEAR(sweep.back().fit_per_bit, 1e3, 1.0);
  EXPECT_THROW((void)sweep_mttf(ReliabilityQuery{}, 0.0, 1.0, 1),
               std::invalid_argument);
}

TEST(Analytic, SweepRejectsGridsBeyondTheSanityCap) {
  // A step below the ulp of log10(fit) would never advance the grid loop,
  // and a 1e9-per-decade grid would allocate billions of points: both are
  // rejected before anything is computed.
  for (const std::size_t ppd : {kMaxSweepPointsPerDecade + 1,
                                std::size_t{1'000'000'000},
                                std::size_t{100'000'000'000'000'000}}) {
    EXPECT_THROW((void)sweep_mttf(ReliabilityQuery{}, 1e-4, 1.0, ppd),
                 std::invalid_argument)
        << ppd;
  }
  EXPECT_THROW((void)sweep_mttf(ReliabilityQuery{}, 1e-4,
                                std::numeric_limits<double>::infinity(), 2),
               std::invalid_argument);
  EXPECT_THROW((void)sweep_mttf(ReliabilityQuery{},
                                std::numeric_limits<double>::quiet_NaN(), 1.0, 2),
               std::invalid_argument);
  // The cap itself is accepted: one decade at the densest grid.
  EXPECT_EQ(sweep_mttf(ReliabilityQuery{}, 1e-4, 1e-3, kMaxSweepPointsPerDecade)
                .size(),
            kMaxSweepPointsPerDecade + 1);
}

TEST(Analytic, BlockFailureFormulaMatchesDirectBinomial) {
  MonteCarloConfig config;
  config.m = 5;
  config.fit_per_bit = 1e7;
  config.window_hours = 24.0;
  config.include_check_bits = true;
  const double p = 1.0 - std::exp(-config.fit_per_bit * 24.0 / 1e9);
  const double cells = 5.0 * 5.0 + 10.0;
  // Direct: 1 - (1-p)^B - B p (1-p)^(B-1).
  const double direct = 1.0 - std::pow(1.0 - p, cells) -
                        cells * p * std::pow(1.0 - p, cells - 1.0);
  EXPECT_NEAR(analytic_block_failure(config), direct, 1e-12);
}

TEST(MonteCarlo, ValidatesConfig) {
  MonteCarloConfig config;
  config.n = 10;
  config.m = 3;
  util::Rng rng(1);
  EXPECT_THROW((void)run_montecarlo(config, rng), std::invalid_argument);
}

TEST(MonteCarlo, NoRateMeansNoFailures) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  config.fit_per_bit = 0.0;
  config.trials = 50;
  util::Rng rng(2);
  const MonteCarloResult result = run_montecarlo(config, rng);
  EXPECT_EQ(result.trials_with_errors, 0u);
  EXPECT_EQ(result.trials_failed, 0u);
  EXPECT_EQ(result.blocks_failed, 0u);
}

TEST(MonteCarlo, MeasuredBlockFailureTracksAnalytic) {
  MonteCarloConfig config;
  config.n = 60;
  config.m = 15;
  config.fit_per_bit = 3e6;  // p ~ 0.072 per bit-day: failures are common
  config.window_hours = 24.0;
  config.trials = 400;
  util::Rng rng(3);
  const MonteCarloResult result = run_montecarlo(config, rng);
  const double analytic = analytic_block_failure(config);
  const double measured = result.block_failure_rate();
  EXPECT_GT(measured, 0.0);
  // 400 trials x 16 blocks: expect agreement within ~25% relative.
  EXPECT_NEAR(measured, analytic, analytic * 0.25);
}

TEST(MonteCarlo, SingleErrorsAlwaysRepairedAtLowRate) {
  MonteCarloConfig config;
  config.n = 45;
  config.m = 9;
  config.fit_per_bit = 1e3;  // p ~ 2.4e-5: double hits in one block absent
  config.trials = 300;
  // Seed pinned to a stream with no same-block double hit (~2% of streams
  // have one; cross-checked against a per-bit scan when the per-trial
  // substream scheme landed) so the zero-failure premise actually holds.
  util::Rng rng(5);
  const MonteCarloResult result = run_montecarlo(config, rng);
  EXPECT_GT(result.corrected_data + result.corrected_check, 0u);
  EXPECT_EQ(result.blocks_failed, 0u);
}

TEST(MonteCarlo, CorrectionsAreCounted) {
  MonteCarloConfig config;
  config.n = 30;
  config.m = 5;
  config.fit_per_bit = 1e6;
  config.trials = 200;
  util::Rng rng(5);
  const MonteCarloResult result = run_montecarlo(config, rng);
  EXPECT_GT(result.flips_injected, 0u);
  EXPECT_GT(result.corrected_data + result.corrected_check +
                result.detected_uncorrectable,
            0u);
  EXPECT_EQ(result.blocks_total, 200u * 36u);
}

}  // namespace
}  // namespace pimecc::rel
