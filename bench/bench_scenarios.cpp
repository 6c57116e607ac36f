// Scenario-diversity frontier: Monte Carlo MTTF vs scrub overhead for every
// fault-model preset x scrub-policy preset combination of the scenario
// engine (reliability/scenario.hpp), emitting machine-readable
// BENCH_scenarios.json.  The interesting output is the *frontier*: adaptive
// policies (activation-triggered, hot-row priority) buy their MTTF gains
// under workload-coupled fault models (disturbance) by scrubbing more
// cells per hour; under workload-blind models (iid) they pay the same
// overhead for little gain.
//
// Every run first executes the cross-check gate and the process exit
// status reflects it:
//   - thread determinism: one campaign run at threads=1 and threads=4 from
//     the same seed must agree on every counter and every TTF statistic
//     bit (the substream contract);
//   - repeatability: the same seed twice must reproduce exactly;
//   - zero-rate accounting: with every fault mechanism disabled, the
//     scenario engine under the periodic policy must perform exactly the
//     same number of scrubs as simulate_lifetime on the matched
//     configuration (pins the policy's window-emission rule to the
//     lifetime engine's walker), with zero failures on both sides;
//   - iid hot configuration: scenario(iid, periodic) and simulate_lifetime
//     are the same experiment up to the hit-to-block assignment
//     approximation, so failure proportions must agree within a 5-sigma
//     binomial band and empirical MTTFs within a ratio band;
//   - stuck-at semantics: a stuck-heavy campaign must observe stuck
//     repairs and spare replacements, and every replacement must have
//     consumed exactly `replace_after_repairs` repairs
//     (stuck_repairs >= cells_replaced * replace_after_repairs).
//
// Usage: bench_scenarios [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (fewer trials)
//   --out=PATH where to write the JSON (default: BENCH_scenarios.json)
#include <cmath>
#include <functional>
#include <iostream>
#include <string_view>

#include "harness.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace pimecc;
using bench::fmt;
using rel::ScenarioConfig;
using rel::ScenarioResult;

/// Full result equality, including the TTF distribution moments -- the
/// thread-determinism and repeatability gates compare every observable.
bool identical(const ScenarioResult& a, const ScenarioResult& b) {
  const util::RunningStats& sa = a.time_to_failure_hours;
  const util::RunningStats& sb = b.time_to_failure_hours;
  return a.trials == b.trials && a.failures == b.failures &&
         a.scrub_events == b.scrub_events &&
         a.blocks_scrubbed == b.blocks_scrubbed &&
         a.cells_scrubbed == b.cells_scrubbed &&
         a.faults_injected == b.faults_injected &&
         a.errors_corrected == b.errors_corrected &&
         a.stuck_repairs == b.stuck_repairs &&
         a.cells_replaced == b.cells_replaced && sa.count() == sb.count() &&
         sa.mean() == sb.mean() && sa.variance() == sb.variance() &&
         sa.min() == sb.min() && sa.max() == sb.max();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_scenarios.json");
  const bool smoke = options.smoke;
  bench::Gates gates;

  // Shared campaign shape for the gates.
  ScenarioConfig base;
  base.n = 60;
  base.m = 15;
  base.max_hours = 240.0;
  base.workload = rel::canonical_workload();

  // --- thread determinism + repeatability (mixed model, adaptive policy:
  // --- exercises every mechanism and the band-subset scrub path) ---------
  {
    ScenarioConfig config = base;
    config.trials = smoke ? 48 : 200;
    rel::apply_fault_preset("mixed", 1.5e4, config.faults);
    rel::apply_policy_preset("hotrow", config.policy);
    util::Rng r1(42), r4(42), r1b(42);
    config.threads = 1;
    const ScenarioResult serial = rel::run_scenario(config, r1);
    const ScenarioResult serial_again = rel::run_scenario(config, r1b);
    config.threads = 4;
    const ScenarioResult threaded = rel::run_scenario(config, r4);
    gates.check(identical(serial, threaded),
                "thread determinism (1 vs 4 lanes)");
    gates.check(identical(serial, serial_again), "same-seed repeatability");
    gates.check(serial.faults_injected > 0 && serial.stuck_repairs > 0,
                "mixed campaign exercised its mechanisms");
  }

  // --- zero-rate scrub accounting vs simulate_lifetime -------------------
  {
    ScenarioConfig config = base;
    config.trials = 7;
    config.faults = rel::FaultMix{};  // every mechanism off
    rel::apply_policy_preset("periodic", config.policy);
    rel::LifetimeConfig lt;
    lt.n = base.n;
    lt.m = base.m;
    lt.crossbars = 1;
    lt.fit_per_bit = 0.0;
    lt.scrub_period_hours = config.policy.period_hours;
    lt.trials = config.trials;
    lt.max_hours = config.max_hours;
    util::Rng sr(7), lr(7);
    const ScenarioResult sc = rel::run_scenario(config, sr);
    const rel::LifetimeResult lf = rel::simulate_lifetime(lt, lr);
    gates.check(sc.failures == 0 && lf.failures == 0,
                "zero-rate campaigns cannot fail");
    gates.check(sc.scrub_events == lf.scrubs_performed,
                "zero-rate scrub count equals simulate_lifetime exactly");
  }

  // --- iid + periodic vs simulate_lifetime (statistical band) ------------
  {
    ScenarioConfig config = base;
    config.trials = smoke ? 200 : 600;
    config.threads = 0;
    rel::apply_fault_preset("iid", 1.5e4, config.faults);
    rel::apply_policy_preset("periodic", config.policy);
    rel::LifetimeConfig lt;
    lt.n = base.n;
    lt.m = base.m;
    lt.crossbars = 1;
    lt.fit_per_bit = config.faults.fit_per_bit;
    lt.scrub_period_hours = config.policy.period_hours;
    lt.trials = config.trials;
    lt.max_hours = config.max_hours;
    lt.threads = 0;
    util::Rng sr(0x5CE2'A210ull), lr(0x5CE2'A210ull);
    const ScenarioResult sc = rel::run_scenario(config, sr);
    const rel::LifetimeResult lf = rel::simulate_lifetime(lt, lr);
    const double n = static_cast<double>(config.trials);
    const double ps = static_cast<double>(sc.failures) / n;
    const double pl = static_cast<double>(lf.failures) / n;
    const double sigma = std::sqrt((ps * (1 - ps) + pl * (1 - pl)) / n);
    gates.check(sc.failures > 0 && lf.failures > 0,
                "iid hot configuration produces failures on both engines");
    gates.check(std::abs(ps - pl) <= 5.0 * sigma + 1e-9,
                "iid failure proportions within the 5-sigma band");
    const double mttf_sc = sc.empirical_mttf_hours(config.max_hours);
    const double mttf_lf = lf.empirical_mttf_hours(lt.max_hours);
    gates.check(std::abs(mttf_sc / mttf_lf - 1.0) <= 0.5,
                "iid empirical MTTFs within the ratio band");
    std::cout << "iid gate: scenario " << sc.failures << "/" << config.trials
              << " failures (mttf " << fmt(mttf_sc) << " h), lifetime "
              << lf.failures << "/" << lt.trials << " (mttf " << fmt(mttf_lf)
              << " h)\n";
  }

  // --- stuck-at semantics -------------------------------------------------
  {
    ScenarioConfig config = base;
    config.trials = smoke ? 100 : 300;
    config.threads = 0;
    config.max_hours = 480.0;
    rel::apply_fault_preset("iid", 8e3, config.faults);
    config.faults.stuck_probability = 0.5;
    config.faults.replace_after_repairs = 2;
    rel::apply_policy_preset("periodic", config.policy);
    util::Rng rng(0x57'0C'CA'7Eull);
    const ScenarioResult sc = rel::run_scenario(config, rng);
    gates.check(sc.stuck_repairs > 0,
                "stuck-heavy campaign observes stuck repairs");
    gates.check(sc.cells_replaced > 0, "stuck-heavy campaign replaces cells");
    gates.check(sc.stuck_repairs >=
                    sc.cells_replaced * config.faults.replace_after_repairs,
                "every replacement consumed replace_after_repairs repairs");
  }

  // ------------------------------------------------------------- frontier
  // MTTF vs scrub overhead across every model x policy cell.  The fault
  // rate is chosen so the periodic baseline fails a moderate fraction of
  // trials within the horizon -- hot enough to resolve policy differences,
  // cold enough that adaptive scrubbing has something to save.
  const double frontier_fit = 2000.0;
  const double frontier_horizon = 480.0;
  const std::size_t frontier_trials = smoke ? 40 : 400;
  const rel::WorkloadModel workload = rel::canonical_workload();
  bench::Json json("pimecc-bench-scenarios/1", options);
  json.object("config")
      .field("n", base.n)
      .field("m", base.m)
      .field("fit_per_bit", frontier_fit)
      .field("horizon_hours", frontier_horizon)
      .field("trials", frontier_trials)
      .end();
  json.object("workload")
      .field("activations_per_hour", workload.activations_per_hour)
      .field("hot_row_fraction", workload.hot_row_fraction)
      .field("hot_multiplier", workload.hot_multiplier)
      .end();
  json.array("frontier");
  for (const std::string_view model : rel::fault_preset_names()) {
    for (const std::string_view policy : rel::scrub_policy_preset_names()) {
      ScenarioConfig config = base;
      config.trials = frontier_trials;
      config.max_hours = frontier_horizon;
      config.threads = 0;
      rel::apply_fault_preset(model, frontier_fit, config.faults);
      rel::apply_policy_preset(policy, config.policy);
      // Deterministic per-cell seed so cells can be reproduced standalone.
      util::Rng rng(0xF07'117E2ull ^ (std::hash<std::string_view>{}(model) * 31 +
                                      std::hash<std::string_view>{}(policy)));
      const ScenarioResult r = rel::run_scenario(config, rng);
      const double mttf = r.empirical_mttf_hours(frontier_horizon);
      const double scrub = r.scrub_cells_per_hour(frontier_horizon);
      std::cout << "frontier model=" << model << " policy=" << policy
                << ": failures " << r.failures << "/" << frontier_trials
                << ", mttf " << fmt(mttf) << " h, scrub " << fmt(scrub)
                << " cells/h\n";
      json.object()
          .field("model", model)
          .field("policy", policy)
          .field("trials", r.trials)
          .field("failures", r.failures)
          .field("mttf_hours", mttf)
          .field("scrub_cells_per_hour", scrub)
          .field("scrub_events", r.scrub_events)
          .field("faults_injected", r.faults_injected)
          .field("errors_corrected", r.errors_corrected)
          .field("stuck_repairs", r.stuck_repairs)
          .field("cells_replaced", r.cells_replaced)
          .end();
    }
  }
  return json.finish(gates, "cross_checks_ok");
}
