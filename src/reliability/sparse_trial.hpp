// pimecc -- reliability/sparse_trial.hpp
//
// The sparse event-driven Monte Carlo campaign behind run_montecarlo,
// run_fleet_montecarlo and run_fleet_campaign.  All three share one set-up
// (one base seed, the golden image from substream 0, one
// SparseTrialContext) and one grouped loop on the campaign driver
// (reliability/campaign.hpp): shard s is trials [s*T, (s+1)*T) on
// substreams 1 + s*T + t, minus an exclusion set.  The flat engine is the
// same loop with T = 1 and no slots, so a fleet over S shards x T trials is
// bit-identical, counter for counter, to a flat run over S*T trials -- the
// fleet engine's primary cross-check, which holds because this file is the
// single definition of what one trial does.
//
// A trial: sample the binomial flip count over the vulnerable population,
// inject (allocation-free record reuse), repair only the touched blocks
// (ArrayCode::scrub_block), compute each touched block's exact residual
// from the injection record plus the reported repair, and roll everything
// back through the undo log so the lane's (data, check) image equals the
// shared golden state again -- O(flips) per trial regardless of n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/array_code.hpp"
#include "fault/injector.hpp"
#include "reliability/fleet_reliability.hpp"
#include "reliability/montecarlo.hpp"
#include "util/bitmatrix.hpp"
#include "util/rng.hpp"

namespace pimecc::rel::detail {

/// Immutable per-run context shared by every lane: the golden images plus
/// the sampled-population geometry.  The golden state outlives every trial
/// (lanes copy it once and reconstitute it after each trial by rollback).
struct SparseTrialContext {
  const util::BitMatrix* golden = nullptr;
  const ecc::ArrayCode* golden_code = nullptr;
  double p = 0.0;              ///< per-cell flip probability per window
  std::size_t population = 0;  ///< data cells + (optionally) check bits
  std::size_t bps = 0;         ///< blocks per side
  std::size_t m = 0;
  bool include_check_bits = true;
};

/// Mutable lane state: one (data, check) image pair equal to golden
/// between trials, plus allocation-free scratch reused across trials.
struct SparseTrialLane {
  explicit SparseTrialLane(const SparseTrialContext& ctx)
      : data(*ctx.golden), code(*ctx.golden_code) {}

  util::BitMatrix data;
  ecc::ArrayCode code;
  fault::InjectionRecord record;
  std::vector<std::size_t> scratch;
  std::vector<std::size_t> touched;
  std::vector<std::pair<std::size_t, std::size_t>> residual;
};

/// Runs one sparse trial on `trial_rng`, accumulating into `out` and
/// leaving `lane` bit-identical to golden again.  See montecarlo.hpp for
/// the counter semantics (miscorrected is exact here).
void run_sparse_trial(const SparseTrialContext& ctx, SparseTrialLane& lane,
                      util::Rng& trial_rng, MonteCarloResult& out);

/// Folds one shard's (or lane's) counters, trials and blocks_total
/// included, into an aggregate.  All fields are integer sums over disjoint
/// trial sets, so the merge is order-insensitive.
void accumulate(MonteCarloResult& total, const MonteCarloResult& partial);

/// One sparse campaign: the caller's single draw, the golden image and its
/// check bits, and the shared trial context.  Not copyable (the context
/// points into the object).
class SparseCampaign {
 public:
  /// Draws the base seed from `rng` (the campaign's only draw) and builds
  /// the golden image from its substream 0.  `config.trials` is unused.
  SparseCampaign(const MonteCarloConfig& config, util::Rng& rng);
  SparseCampaign(const SparseCampaign&) = delete;
  SparseCampaign& operator=(const SparseCampaign&) = delete;

  [[nodiscard]] const util::BitMatrix& golden() const noexcept {
    return golden_;
  }

  /// Runs `shards` x `trials_per_shard` trials, shard s on substreams
  /// 1 + s*T + t, skipping every shard s with excluded[s] (an empty
  /// `excluded` skips none).  Fills slots[s].stats when `slots` is
  /// non-empty and returns the totals over the shards that ran.
  [[nodiscard]] MonteCarloResult run(
      std::size_t shards, std::size_t trials_per_shard,
      std::span<FleetShardOutcome> slots,
      const std::vector<bool>& excluded = {}) const;

 private:
  std::size_t threads_;
  std::uint64_t base_seed_;
  util::BitMatrix golden_;
  ecc::ArrayCode golden_code_;
  SparseTrialContext ctx_;
};

}  // namespace pimecc::rel::detail
