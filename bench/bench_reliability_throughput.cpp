// Reliability throughput harness: measures the sparse event-driven engine
// against its dense reference on both reliability hot paths and emits
// machine-readable BENCH_reliability.json -- the reliability-layer
// companion of bench_engine/codec/arch_throughput.
//
//   1. montecarlo: trials/second, run_montecarlo (O(flips) sparse trials:
//      inject -> scrub_block on touched blocks -> exact residual -> undo-log
//      rollback) vs reference_run_montecarlo (per-trial golden copies +
//      whole-array scrub + row-XOR scan).  SERs are chosen so a trial
//      carries ~3 flips on average, the paper's rare-event regime.
//   2. lifetime: scrub windows/second, simulate_lifetime (geometric
//      skip-ahead over empty windows + conditioned hit counts) vs
//      reference_simulate_lifetime (one binomial per window) across a
//      multi-year horizon where most windows are empty.
//
// Every run first executes the cross-check gate and the process exit
// status reflects it:
//   - montecarlo: fast and reference counters must be EQUAL on a shared
//     seed for every timed configuration (miscorrected excluded: the
//     sparse engine is exact where the reference approximates, so it is
//     gated by <= instead);
//   - lifetime: exact scrub-count equality at zero rate, and on a hot
//     configuration matched failure counts within a 5-sigma binomial band
//     plus empirical-vs-analytic MTTF agreement for both engines.
//
// Usage: bench_reliability_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (small arrays, short measurements)
//   --out=PATH where to write the JSON (default: BENCH_reliability.json)
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "oracle/reference_reliability.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/montecarlo.hpp"
#include "util/rng.hpp"

namespace {

using pimecc::rel::LifetimeConfig;
using pimecc::rel::LifetimeResult;
using pimecc::rel::MonteCarloConfig;
using pimecc::rel::MonteCarloResult;

MonteCarloResult without_miscorrected(MonteCarloResult r) {
  r.miscorrected = 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_reliability.json");
  const bool smoke = options.smoke;
  bench::Gates gates;
  const double min_seconds = smoke ? 0.05 : 1.0;
  bench::Json json("pimecc-bench-reliability/1", options);

  // ------------------------------------------------------------ montecarlo
  struct McCase {
    std::size_t n, m;
  };
  const std::vector<McCase> mc_cases =
      smoke ? std::vector<McCase>{{120, 15}}
            : std::vector<McCase>{{510, 15}, {1020, 15}};
  double mc_speedup = 0.0;  // of the last (largest) case
  json.array("montecarlo");
  for (const McCase& c : mc_cases) {
    MonteCarloConfig config;
    config.n = c.n;
    config.m = c.m;
    config.window_hours = 24.0;
    config.threads = 1;
    const std::size_t blocks = (c.n / c.m) * (c.n / c.m);
    const double mean_flips = 3.0;
    config.fit_per_bit = bench::fit_for_mean_flips(
        mean_flips, c.n * c.n + blocks * 2 * c.m, 24.0);

    // Cross-check gate: shared seed, counter equality per substream.
    config.trials = smoke ? 30 : 40;
    util::Rng fast_rng(0xBE7C'7E57ull), ref_rng(0xBE7C'7E57ull);
    const MonteCarloResult fast = rel::run_montecarlo(config, fast_rng);
    const MonteCarloResult ref = rel::reference_run_montecarlo(config, ref_rng);
    gates.check(without_miscorrected(fast) == without_miscorrected(ref) &&
                    fast.miscorrected <= ref.miscorrected &&
                    fast.miscorrected <= fast.blocks_failed,
                "montecarlo at n=" + std::to_string(c.n) +
                    " m=" + std::to_string(c.m));

    const std::size_t fast_trials = smoke ? 2000 : 20000;
    const std::size_t ref_trials = smoke ? 50 : 100;
    std::uint64_t stamp = 1;
    const double sparse_rate = bench::measure_rate(min_seconds, [&] {
      config.trials = fast_trials;
      util::Rng rng(stamp++);
      (void)rel::run_montecarlo(config, rng);
      return fast_trials;
    });
    const double ref_rate = bench::measure_rate(min_seconds, [&] {
      config.trials = ref_trials;
      util::Rng rng(stamp++);
      (void)rel::reference_run_montecarlo(config, rng);
      return ref_trials;
    });
    mc_speedup = sparse_rate / ref_rate;
    std::cout << "montecarlo n=" << c.n << " m=" << c.m << ": sparse "
              << fmt(sparse_rate) << " trials/s, reference " << fmt(ref_rate)
              << " trials/s -> " << fmt(mc_speedup) << "x\n";
    json.object()
        .field("n", c.n)
        .field("m", c.m)
        .field("fit_per_bit", config.fit_per_bit)
        .field("mean_flips_per_trial", mean_flips)
        .field("reference_trials_per_sec", ref_rate)
        .field("sparse_trials_per_sec", sparse_rate)
        .field("speedup", mc_speedup)
        .end();
  }
  json.end();

  // -------------------------------------------------------------- lifetime
  struct LtCase {
    std::size_t n, m, crossbars;
    double horizon_hours;
  };
  const std::vector<LtCase> lt_cases =
      smoke ? std::vector<LtCase>{{60, 15, 1, 24.0 * 365 * 10}}
            : std::vector<LtCase>{{1020, 15, 1, 24.0 * 365 * 20}};
  double lt_speedup = 0.0;  // of the last (largest) case
  json.array("lifetime");
  for (const LtCase& c : lt_cases) {
    LifetimeConfig config;
    config.n = c.n;
    config.m = c.m;
    config.crossbars = c.crossbars;
    config.scrub_period_hours = 24.0;
    config.max_hours = c.horizon_hours;
    config.threads = 1;
    const std::size_t blocks = (c.n / c.m) * (c.n / c.m) * c.crossbars;
    // Rare-event regime: ~1 non-empty window per hundred, the setting the
    // skip-ahead is built for (Fig. 6 rates are far rarer still).
    config.fit_per_bit = bench::fit_for_mean_flips(
        0.01, static_cast<std::uint64_t>(blocks) * (c.m * c.m + 2 * c.m), 24.0);

    // Exact gate: at zero rate both engines must scrub every window of
    // every trial -- pins the skip-ahead's window accounting to the walker.
    {
      LifetimeConfig zero = config;
      zero.fit_per_bit = 0.0;
      zero.trials = 3;
      util::Rng fz(1), rz(1);
      const LifetimeResult a = rel::simulate_lifetime(zero, fz);
      const LifetimeResult b = rel::reference_simulate_lifetime(zero, rz);
      gates.check(a.scrubs_performed == b.scrubs_performed && a.failures == 0 &&
                      b.failures == 0,
                  "lifetime zero-rate at n=" + std::to_string(c.n));
    }

    std::uint64_t stamp = 1000;
    const std::size_t fast_trials = smoke ? 50 : 200;
    const std::size_t ref_trials = smoke ? 5 : 10;
    const double skip_rate = bench::measure_rate(min_seconds, [&] {
      config.trials = fast_trials;
      util::Rng rng(stamp++);
      return rel::simulate_lifetime(config, rng).scrubs_performed;
    });
    const double ref_rate = bench::measure_rate(min_seconds, [&] {
      config.trials = ref_trials;
      util::Rng rng(stamp++);
      return rel::reference_simulate_lifetime(config, rng).scrubs_performed;
    });
    lt_speedup = skip_rate / ref_rate;
    std::cout << "lifetime n=" << c.n << " m=" << c.m << " x" << c.crossbars
              << " horizon=" << fmt(c.horizon_hours / 8760.0)
              << "y: skip-ahead " << fmt(skip_rate) << " windows/s, reference "
              << fmt(ref_rate) << " windows/s -> " << fmt(lt_speedup) << "x\n";
    json.object()
        .field("n", c.n)
        .field("m", c.m)
        .field("crossbars", c.crossbars)
        .field("fit_per_bit", config.fit_per_bit)
        .field("horizon_hours", c.horizon_hours)
        .field("windows_per_trial",
               static_cast<std::uint64_t>(
                   std::ceil(c.horizon_hours / config.scrub_period_hours)))
        .field("reference_windows_per_sec", ref_rate)
        .field("skip_ahead_windows_per_sec", skip_rate)
        .field("speedup", lt_speedup)
        .end();
  }
  json.end();

  // Hot-configuration distribution gate: the skip-ahead resamples the
  // stream, so the pinning is matched failure counts (binomial band) and
  // analytic-model agreement, not bit equality.
  {
    LifetimeConfig hot;
    hot.n = 60;
    hot.m = 15;
    hot.crossbars = 4;
    hot.fit_per_bit = 1e4;  // analytic MTTF ~ 221 h
    hot.scrub_period_hours = 24.0;
    hot.max_hours = 240.0;
    hot.trials = smoke ? 200 : 600;
    util::Rng fast_rng(0x11FE'7'BE11ull), ref_rng(0x11FE'7'BE11ull);
    const LifetimeResult fast = rel::simulate_lifetime(hot, fast_rng);
    const LifetimeResult ref = rel::reference_simulate_lifetime(hot, ref_rng);
    const double n = static_cast<double>(hot.trials);
    const double pf = static_cast<double>(fast.failures) / n;
    const double pr = static_cast<double>(ref.failures) / n;
    const double sigma = std::sqrt((pf * (1 - pf) + pr * (1 - pr)) / n);
    gates.check(fast.failures != 0 && ref.failures != 0 &&
                    std::abs(pf - pr) <= 5.0 * sigma + 1e-9,
                "lifetime failure count: fast " +
                    std::to_string(fast.failures) + " vs reference " +
                    std::to_string(ref.failures) + " of " +
                    std::to_string(hot.trials));
    const double analytic = rel::analytic_mttf_hours(hot);
    for (const auto& [name, result] :
         {std::pair<const char*, const LifetimeResult*>{"skip-ahead", &fast},
          {"reference", &ref}}) {
      const double empirical = result->empirical_mttf_hours(hot.max_hours);
      gates.check(std::abs(empirical / analytic - 1.0) <= 0.35,
                  std::string("lifetime analytic (") + name + "): " +
                      fmt(empirical) + " h vs analytic " + fmt(analytic) +
                      " h");
    }
  }

  const McCase& mc_largest = mc_cases.back();
  const LtCase& lt_largest = lt_cases.back();
  json.object("largest_config")
      .field("montecarlo_n", mc_largest.n)
      .field("montecarlo_m", mc_largest.m)
      .field("montecarlo_speedup", mc_speedup)
      .field("lifetime_n", lt_largest.n)
      .field("lifetime_horizon_years", lt_largest.horizon_hours / 8760.0)
      .field("lifetime_speedup", lt_speedup)
      .end();
  return json.finish(gates, "cross_checks_ok");
}
