#include "reliability/fleet_reliability.hpp"

#include <stdexcept>
#include <vector>

#include "reliability/config_checks.hpp"
#include "reliability/sparse_trial.hpp"

namespace pimecc::rel {

FleetMonteCarloResult run_fleet_montecarlo(const FleetMonteCarloConfig& config,
                                           util::Rng& rng) {
  require_valid(config.flat());
  if (config.shards == 0) {
    throw std::invalid_argument("run_fleet_montecarlo: need >= 1 shard");
  }
  // Shard s's trial t rides substream 1 + s*T + t: exactly the substream
  // sequence a flat run_montecarlo over S*T trials walks, so every counter
  // of result.total is bit-identical to the flat engine's.
  const detail::SparseCampaign campaign(config.flat(), rng);
  FleetMonteCarloResult result;
  result.shards.resize(config.shards);
  result.total =
      campaign.run(config.shards, config.trials_per_shard, result.shards);
  return result;
}

FleetCampaignResult run_fleet_campaign(const FleetMonteCarloConfig& config,
                                       arch::CrossbarFleet& fleet,
                                       util::Rng& rng) {
  require_valid(config.flat());
  if (config.shards == 0) {
    throw std::invalid_argument("run_fleet_campaign: need >= 1 shard");
  }
  if (fleet.shard_count() != config.shards || fleet.n() != config.n ||
      fleet.m() != config.m) {
    throw std::invalid_argument(
        "run_fleet_campaign: fleet shape must match the campaign config");
  }

  FleetCampaignResult result;

  // Preflight scrub: shards reporting uncorrectable blocks are quarantined
  // before any trial runs.  With spares they are remapped and participate
  // normally; without, they are excluded from the accounting entirely.
  result.degradation.quarantined = fleet.quarantine_uncorrectable();
  for (const std::size_t s : result.degradation.quarantined) {
    if (fleet.shard_active(s)) {
      ++result.degradation.spares_activated;
    } else {
      ++result.degradation.shards_excluded;
      result.degradation.trials_skipped += config.trials_per_shard;
    }
  }

  // Substreams are indexed by LOGICAL shard id (as in run_fleet_montecarlo),
  // so a respared shard replays its predecessor's exact trial sequence
  // (bit-identical recovery) and an excluded shard's trials simply never
  // run (exact subtraction).
  const detail::SparseCampaign campaign(config.flat(), rng);
  // Surviving shards (including freshly respared ones) carry the campaign
  // image; dead shards are skipped by the fleet itself.
  fleet.load_broadcast(campaign.golden());
  result.shards.resize(config.shards);
  std::vector<bool> excluded(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    excluded[s] = result.shards[s].skipped = !fleet.shard_active(s);
  }
  result.total = campaign.run(config.shards, config.trials_per_shard,
                              result.shards, excluded);
  return result;
}

std::vector<FleetMttfPoint> run_fleet_mttf_grid(
    const FleetMttfGridConfig& config, util::Rng& rng) {
  std::vector<FleetMttfPoint> grid;
  grid.reserve(config.fit_points.size() * config.shard_counts.size());
  // Row-major (fit, shards): each cell consumes exactly one caller draw
  // (simulate_lifetime's contract), so the whole grid is reproducible from
  // the caller's rng state regardless of worker count or cell order --
  // but we still run cells in order, since each cell is internally
  // executor-parallel already.
  for (const double fit : config.fit_points) {
    for (const std::size_t shards : config.shard_counts) {
      LifetimeConfig cell;
      cell.n = config.n;
      cell.m = config.m;
      cell.crossbars = shards;
      cell.fit_per_bit = fit;
      cell.scrub_period_hours = config.scrub_period_hours;
      cell.trials = config.trials;
      cell.max_hours = config.max_hours;
      cell.include_check_bits = true;
      cell.threads = config.threads;

      const LifetimeResult run = simulate_lifetime(cell, rng);

      FleetMttfPoint point;
      point.fit_per_bit = fit;
      point.shards = shards;
      point.trials = run.trials;
      point.failures = run.failures;
      point.horizon_hours = config.max_hours;
      point.empirical_mttf_hours = run.empirical_mttf_hours(config.max_hours);
      point.analytic_mttf_hours = analytic_mttf_hours(cell);
      point.scrub_windows = run.scrubs_performed;
      grid.push_back(point);
    }
  }
  return grid;
}

}  // namespace pimecc::rel
