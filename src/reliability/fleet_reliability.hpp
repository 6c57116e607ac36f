// pimecc -- reliability/fleet_reliability.hpp
//
// Fleet-scale reliability campaigns: Monte Carlo over a sharded bank of
// crossbars and the Figure 6 MTTF grid over simulated datacenter-sized
// memories, both riding the persistent executor (util/executor.hpp).
//
// run_fleet_montecarlo treats a *shard* as the unit of work: shard s runs
// trials_per_shard trials on substreams 1 + s * trials_per_shard + t of
// the single-crossbar engine's own loop (reliability/sparse_trial.hpp),
// over one golden image shared by every shard.  So the fleet totals are
// BIT-IDENTICAL to run_montecarlo over shards * trials_per_shard flat
// trials from the same caller rng, at every shard count and every worker
// count.  On top of the flat totals it reports per-shard outcome slots
// (slot s belongs to shard s alone).
//
// run_fleet_mttf_grid evaluates a (SER x shard-count) grid of lifetime
// campaigns -- the empirical counterpart of the paper's Figure 6 sweep,
// scaled from one crossbar to a simulated bank -- pairing each cell's
// empirical MTTF (simulate_lifetime, skip-ahead engine, executor-parallel
// trials) with the Section V-A closed form for the same geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/fleet.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/montecarlo.hpp"
#include "util/rng.hpp"

namespace pimecc::rel {

/// Configuration of one fleet Monte Carlo campaign.
struct FleetMonteCarloConfig {
  std::size_t n = 120;   ///< per-shard crossbar dimension
  std::size_t m = 15;    ///< block size
  double fit_per_bit = 0.0;
  double window_hours = 24.0;
  std::size_t shards = 64;
  std::size_t trials_per_shard = 10;
  bool include_check_bits = true;
  std::size_t threads = 1;  ///< executor lanes; 0 = full shared-executor width

  [[nodiscard]] std::size_t total_trials() const noexcept {
    return shards * trials_per_shard;
  }
  /// The flat single-crossbar configuration this campaign must reproduce
  /// bit-identically (trials = shards * trials_per_shard).
  [[nodiscard]] MonteCarloConfig flat() const noexcept {
    MonteCarloConfig config;
    config.n = n;
    config.m = m;
    config.fit_per_bit = fit_per_bit;
    config.window_hours = window_hours;
    config.trials = total_trials();
    config.include_check_bits = include_check_bits;
    config.threads = threads;
    return config;
  }
};

/// Outcome slot of one shard (deterministic: slot s is written only by the
/// lane that ran shard s, whichever lane that was).
struct FleetShardOutcome {
  /// Full per-shard counters (trials/blocks_total included), so degraded
  /// campaign totals are exactly the sum of the surviving shards' stats.
  MonteCarloResult stats;
  /// True when the shard was quarantined without a spare and ran no trials.
  bool skipped = false;
  bool operator==(const FleetShardOutcome&) const noexcept = default;
};

/// Aggregated fleet campaign outcome.
struct FleetMonteCarloResult {
  /// Flat totals; bit-identical to run_montecarlo(config.flat(), rng).
  MonteCarloResult total;
  /// Per-shard outcomes in shard order.
  std::vector<FleetShardOutcome> shards;
};

/// Runs the fleet campaign.  Draws exactly one value from `rng`; see the
/// file comment for the substream mapping and the bit-identity contract.
[[nodiscard]] FleetMonteCarloResult run_fleet_montecarlo(
    const FleetMonteCarloConfig& config, util::Rng& rng);

/// Degradation bookkeeping of one health-aware fleet campaign.
struct FleetDegradationReport {
  /// Logical shards quarantined by the preflight scrub, in shard order.
  std::vector<std::size_t> quarantined;
  std::size_t spares_activated = 0;  ///< quarantined shards remapped + rerun
  std::size_t shards_excluded = 0;   ///< quarantined shards with no spare
  std::size_t trials_skipped = 0;    ///< excluded shards x trials_per_shard
  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }
};

/// Health-aware campaign outcome: totals cover ONLY the shards that ran.
struct FleetCampaignResult {
  MonteCarloResult total;
  std::vector<FleetShardOutcome> shards;  ///< slot.skipped marks exclusions
  FleetDegradationReport degradation;
};

/// Runs a Monte Carlo campaign over `fleet`'s health state: a preflight
/// scrub quarantines every shard reporting uncorrectable blocks
/// (CrossbarFleet::quarantine_uncorrectable); quarantined shards with a
/// spare are remapped, reloaded, and run their trials normally, shards
/// without one are excluded with exact bookkeeping.  Substreams are
/// logical-shard-indexed (shard s trial t on 1 + s*T + t, identical to
/// run_fleet_montecarlo), so a fully respared campaign is BIT-IDENTICAL to
/// a healthy one, and an excluded campaign's totals equal the healthy
/// run's minus exactly the excluded shards' slots.  Requires
/// fleet.shard_count() == config.shards and matching (n, m); draws exactly
/// one value from `rng`.
[[nodiscard]] FleetCampaignResult run_fleet_campaign(
    const FleetMonteCarloConfig& config, arch::CrossbarFleet& fleet,
    util::Rng& rng);

/// One cell of the fleet MTTF grid.
struct FleetMttfPoint {
  double fit_per_bit = 0.0;
  std::size_t shards = 0;
  std::size_t trials = 0;
  std::size_t failures = 0;
  double horizon_hours = 0.0;
  double empirical_mttf_hours = 0.0;  ///< censored MLE (LifetimeResult)
  double analytic_mttf_hours = 0.0;   ///< Section V-A closed form
  std::uint64_t scrub_windows = 0;    ///< scrubs simulated across all trials
};

/// Grid configuration: the cross product of SER points and shard counts,
/// each cell a full lifetime campaign over a bank of `shards` crossbars.
struct FleetMttfGridConfig {
  std::size_t n = 1020;
  std::size_t m = 15;
  double scrub_period_hours = 24.0;
  double max_hours = 24.0 * 365 * 20;  ///< per-trial horizon
  std::size_t trials = 100;
  std::size_t threads = 0;  ///< executor lanes per cell; 0 = full width
  std::vector<double> fit_points;
  std::vector<std::size_t> shard_counts;
};

/// Evaluates the grid cell by cell (each cell's trials run
/// executor-parallel).  Cells are seeded with one caller draw each, in
/// row-major (fit, shards) order, so the grid is reproducible from the
/// caller's rng state regardless of worker count.
[[nodiscard]] std::vector<FleetMttfPoint> run_fleet_mttf_grid(
    const FleetMttfGridConfig& config, util::Rng& rng);

}  // namespace pimecc::rel
