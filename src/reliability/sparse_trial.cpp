#include "reliability/sparse_trial.hpp"

#include <algorithm>

#include "reliability/campaign.hpp"
#include "util/units.hpp"

namespace pimecc::rel::detail {

namespace {

/// The golden image: substream 0 of `base_seed`.
util::BitMatrix make_golden(std::size_t n, std::uint64_t base_seed) {
  util::Rng golden_rng = util::Rng::for_stream(base_seed, 0);
  return util::random_bit_matrix(n, n, golden_rng);
}

}  // namespace

void accumulate(MonteCarloResult& total, const MonteCarloResult& partial) {
  total.trials += partial.trials;
  total.trials_with_errors += partial.trials_with_errors;
  total.trials_failed += partial.trials_failed;
  total.blocks_total += partial.blocks_total;
  total.flips_injected += partial.flips_injected;
  total.blocks_failed += partial.blocks_failed;
  total.blocks_with_errors += partial.blocks_with_errors;
  total.corrected_data += partial.corrected_data;
  total.corrected_check += partial.corrected_check;
  total.detected_uncorrectable += partial.detected_uncorrectable;
  total.miscorrected += partial.miscorrected;
}

SparseCampaign::SparseCampaign(const MonteCarloConfig& config, util::Rng& rng)
    : threads_(config.threads),
      base_seed_(rng.next()),
      golden_(make_golden(config.n, base_seed_)),
      golden_code_(config.n, config.m) {
  golden_code_.encode_all(golden_);
  const std::size_t check_cells =
      config.include_check_bits ? golden_code_.block_count() * 2 * config.m : 0;
  ctx_.golden = &golden_;
  ctx_.golden_code = &golden_code_;
  ctx_.p = util::error_probability(config.fit_per_bit, config.window_hours);
  ctx_.population = config.n * config.n + check_cells;
  ctx_.bps = golden_code_.blocks_per_side();
  ctx_.m = config.m;
  ctx_.include_check_bits = config.include_check_bits;
}

MonteCarloResult SparseCampaign::run(std::size_t shards,
                                     std::size_t trials_per_shard,
                                     std::span<FleetShardOutcome> slots,
                                     const std::vector<bool>& excluded) const {
  // A lane runs a shard's trials back to back into `shard`, then files the
  // shard into its slot and its own sums.
  struct Lane {
    SparseTrialLane state;
    MonteCarloResult shard;
    MonteCarloResult sum;
  };
  if (trials_per_shard == 0) return {};  // empty shards: nothing to run
  const std::uint64_t blocks_per_trial = golden_code_.block_count();
  const CampaignPlan plan{base_seed_, /*first_substream=*/1,
                          shards * trials_per_shard, trials_per_shard,
                          threads_};
  const std::vector<Lane> lanes = run_campaign<Lane>(
      plan, [this] { return Lane{SparseTrialLane(ctx_), {}, {}}; },
      [&](Lane& lane, util::Rng& trial_rng, std::size_t i) {
        const std::size_t s = i / trials_per_shard;
        if (!excluded.empty() && excluded[s]) return;
        run_sparse_trial(ctx_, lane.state, trial_rng, lane.shard);
        if ((i + 1) % trials_per_shard != 0) return;  // shard not done yet
        lane.shard.trials = trials_per_shard;
        lane.shard.blocks_total = trials_per_shard * blocks_per_trial;
        if (!slots.empty()) slots[s].stats = lane.shard;
        accumulate(lane.sum, lane.shard);
        lane.shard = {};
      });
  MonteCarloResult total;
  for (const Lane& lane : lanes) accumulate(total, lane.sum);
  return total;
}

void run_sparse_trial(const SparseTrialContext& ctx, SparseTrialLane& lane,
                      util::Rng& trial_rng, MonteCarloResult& out) {
  const std::size_t flips =
      static_cast<std::size_t>(trial_rng.binomial(ctx.population, ctx.p));
  if (flips == 0) return;
  ++out.trials_with_errors;
  out.flips_injected += flips;

  const std::size_t mm = ctx.m;
  const std::size_t bps = ctx.bps;

  if (ctx.include_check_bits) {
    fault::inject_flips_everywhere(trial_rng, lane.data, lane.code, flips,
                                   lane.record, lane.scratch);
  } else {
    fault::inject_data_flips(trial_rng, lane.data, flips, lane.record,
                             lane.scratch);
  }

  // Which blocks received at least one flip (sorted unique flat ids).
  lane.touched.clear();
  for (const fault::DataFlip& f : lane.record.data_flips) {
    lane.touched.push_back((f.r / mm) * bps + f.c / mm);
  }
  for (const fault::CheckFlip& f : lane.record.check_flips) {
    lane.touched.push_back(f.block_row * bps + f.block_col);
  }
  std::sort(lane.touched.begin(), lane.touched.end());
  lane.touched.erase(std::unique(lane.touched.begin(), lane.touched.end()),
                     lane.touched.end());
  out.blocks_with_errors += lane.touched.size();

  std::size_t failed_blocks_this_trial = 0;
  for (const std::size_t flat : lane.touched) {
    const ecc::BlockIndex b{flat / bps, flat % bps};
    const ecc::BlockRepair repair = lane.code.scrub_block(lane.data, b);
    switch (repair.status) {
      case ecc::DecodeStatus::kClean: break;
      case ecc::DecodeStatus::kCorrectedData: ++out.corrected_data; break;
      case ecc::DecodeStatus::kCorrectedCheck: ++out.corrected_check; break;
      case ecc::DecodeStatus::kDetectedUncorrectable:
        ++out.detected_uncorrectable;
        break;
    }

    // Exact residual: every data flip this trial put into block b, plus
    // the repair's own flip if it corrected a data bit.  Cells listed
    // twice cancelled out (the repair undid an injected flip); cells
    // listed once are still wrong.
    lane.residual.clear();
    for (const fault::DataFlip& f : lane.record.data_flips) {
      if (f.r / mm == b.block_row && f.c / mm == b.block_col) {
        lane.residual.emplace_back(f.r, f.c);
      }
    }
    if (repair.status == ecc::DecodeStatus::kCorrectedData) {
      lane.residual.emplace_back(repair.data_r, repair.data_c);
    }
    std::sort(lane.residual.begin(), lane.residual.end());
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < lane.residual.size();) {
      if (i + 1 < lane.residual.size() &&
          lane.residual[i] == lane.residual[i + 1]) {
        i += 2;  // injected and repaired: already back at golden
        continue;
      }
      ++survivors;
      lane.data.flip(lane.residual[i].first, lane.residual[i].second);  // rollback
      ++i;
    }
    if (survivors > 0) {
      ++failed_blocks_this_trial;
      // Exact miscorrection verdict: this block's scrub claimed a data
      // correction, yet the block did not return to golden.
      if (repair.status == ecc::DecodeStatus::kCorrectedData) {
        ++out.miscorrected;
      }
    }

    // Roll back a check-bit repair (it flipped exactly one stored bit).
    if (repair.status == ecc::DecodeStatus::kCorrectedCheck) {
      lane.code.flip_check_bit(b, repair.check_on_leading_axis,
                               repair.check_index);
    }
  }

  // Roll back the injected check flips; combined with the per-block
  // repair rollbacks above, every check bit has now been flipped an even
  // number of times and the stored state equals golden again.
  for (const fault::CheckFlip& f : lane.record.check_flips) {
    lane.code.flip_check_bit({f.block_row, f.block_col}, f.on_leading_axis,
                             f.index);
  }

  out.blocks_failed += failed_blocks_this_trial;
  if (failed_blocks_this_trial > 0) ++out.trials_failed;
}

}  // namespace pimecc::rel::detail
