// pimecc -- reliability/campaign.hpp
//
// The one campaign driver behind every reliability engine (run_montecarlo,
// run_fleet_montecarlo, run_fleet_campaign, advance_lifetime, run_scenario).
// An engine supplies only its trial body; the driver owns the rest of the
// determinism contract:
//   - seeding: the engine draws ONE base seed from the caller's generator
//     (CampaignPlan::base_seed), so the caller's stream advances by the same
//     single draw at every thread count;
//   - the trial -> substream mapping: trial i of the plan rides
//     util::Rng::for_stream(base_seed, first_substream + i), and this is the
//     only place a trial's substream is derived;
//   - lanes: tickets of trials_per_ticket consecutive trials (one trial for
//     the flat, lifetime and scenario engines, one shard for the fleet) are
//     pulled by util::parallel_for_lanes lanes, a ticket's trials back to
//     back on one lane;
//   - slots and the fold: a trial writes only lane-local sums (commutative
//     integer merges) and its own ticket's or trial's slot, and per-trial
//     time-to-failure slots fold in trial order (fold_ttf).
// Which lane runs which ticket therefore cannot change any result bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pimecc::rel::detail {

/// Which substreams a campaign's trials ride and how they group into
/// tickets.  `trials` must be a multiple of `trials_per_ticket`.
struct CampaignPlan {
  std::uint64_t base_seed = 0;
  std::uint64_t first_substream = 0;  ///< substream of trial 0
  std::size_t trials = 0;
  std::size_t trials_per_ticket = 1;
  std::size_t threads = 1;  ///< lane cap; 0 = the shared executor's width
};

/// Runs run_trial(lane, trial_rng, i) once for every trial i in
/// [0, plan.trials) and returns the lane states for the caller's
/// commutative merge.  make_lane() builds one lane state per lane on the
/// calling thread (parallel_for_lanes's contract).
template <typename Lane, typename MakeLane, typename RunTrial>
std::vector<Lane> run_campaign(const CampaignPlan& plan, MakeLane&& make_lane,
                               RunTrial&& run_trial) {
  const std::size_t per_ticket = plan.trials_per_ticket;
  return util::parallel_for_lanes<Lane>(
      util::Executor::shared(), plan.trials / per_ticket, plan.threads,
      make_lane,
      [&plan, &run_trial, per_ticket](Lane& lane, std::size_t ticket) {
        for (std::size_t i = ticket * per_ticket; i < (ticket + 1) * per_ticket;
             ++i) {
          util::Rng trial_rng =
              util::Rng::for_stream(plan.base_seed, plan.first_substream + i);
          run_trial(lane, trial_rng, i);
        }
      });
}

/// Folds per-trial times to failure (negative = survived the horizon) in
/// trial order, so the statistics are bit-identical for any lane count.
[[nodiscard]] inline util::RunningStats fold_ttf(std::span<const double> ttf) {
  util::RunningStats stats;
  for (const double hours : ttf) {
    if (hours >= 0.0) stats.add(hours);
  }
  return stats;
}

/// Total observed exposure of a censored campaign: failed trials contribute
/// their time to failure, survivors the full `horizon`.
[[nodiscard]] inline double censored_exposure_hours(
    const util::RunningStats& ttf, std::size_t trials, std::size_t failures,
    double horizon) noexcept {
  return ttf.sum() + static_cast<double>(trials - failures) * horizon;
}

/// The censored-data MLE of an exponential lifetime: exposure / failures;
/// with no failure, the total exposure horizon * trials.
[[nodiscard]] inline double censored_mttf_hours(const util::RunningStats& ttf,
                                                std::size_t trials,
                                                std::size_t failures,
                                                double horizon) noexcept {
  if (failures == 0) return horizon * static_cast<double>(trials);
  return censored_exposure_hours(ttf, trials, failures, horizon) /
         static_cast<double>(failures);
}

}  // namespace pimecc::rel::detail
