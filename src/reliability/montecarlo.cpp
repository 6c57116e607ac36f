#include "reliability/montecarlo.hpp"

#include <cmath>

#include "reliability/config_checks.hpp"
#include "reliability/sparse_trial.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

double MonteCarloResult::block_failure_rate() const noexcept {
  return blocks_total > 0 ? static_cast<double>(blocks_failed) /
                                static_cast<double>(blocks_total)
                          : 0.0;
}

MonteCarloResult run_montecarlo(const MonteCarloConfig& config, util::Rng& rng) {
  require_valid(config);
  // The fleet loop with one trial per shard and no slots: trial t rides
  // substream t + 1, identically to reference_run_montecarlo and the fleet
  // engine.
  const detail::SparseCampaign campaign(config, rng);
  return campaign.run(config.trials, 1, {});
}

double analytic_block_failure(const MonteCarloConfig& config) {
  const double p =
      util::error_probability(config.fit_per_bit, config.window_hours);
  const double cells = static_cast<double>(
      config.m * config.m + (config.include_check_bits ? 2 * config.m : 0));
  // 1 - (1-p)^B - B p (1-p)^(B-1), in log space for small p.
  const double log1mp = std::log1p(-p);
  const double ok = std::exp(cells * log1mp) +
                    cells * p * std::exp((cells - 1.0) * log1mp);
  return 1.0 - ok;
}

}  // namespace pimecc::rel
