#include "reliability/lifetime.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "reliability/analytic.hpp"
#include "reliability/config_checks.hpp"
#include "reliability/campaign.hpp"
#include "util/serialize.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

double LifetimeResult::empirical_mttf_hours(double horizon) const noexcept {
  return detail::censored_mttf_hours(time_to_failure_hours, trials, failures,
                                     horizon);
}

namespace {

/// Binomial(n, p) conditioned on >= 1 success.  `s` is P(X >= 1) and
/// `log_q` is n*log(1-p) (precomputed by the caller, shared across all
/// windows).  Hybrid: when non-empty windows are common (s >= 1/2),
/// rejection from the unconditional binomial terminates in <= 2 expected
/// draws; in the rare-event regime it inverts the conditional CDF with the
/// pmf recurrence, O(E[X | X >= 1]) ~ O(1) iterations.
std::uint64_t positive_binomial(util::Rng& rng, std::uint64_t n, double p,
                                double s, double log_q) {
  if (p >= 1.0) return n;
  if (s >= 0.5) {
    while (true) {
      const std::uint64_t x = rng.binomial(n, p);
      if (x >= 1) return x;
    }
  }
  const double u = rng.uniform01() * s;
  // pmf(1) = n p (1-p)^(n-1), then pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
  double pmf = static_cast<double>(n) * p * std::exp(log_q - std::log1p(-p));
  double cdf = pmf;
  std::uint64_t k = 1;
  while (u > cdf && k < n) {
    pmf *= (static_cast<double>(n - k) / static_cast<double>(k + 1)) *
           (p / (1.0 - p));
    cdf += pmf;
    ++k;
    if (pmf <= 0.0) break;  // underflow: all remaining mass is below u's ulp
  }
  return k;
}

/// Quantities every trial shares, derived once per advance_lifetime call
/// (pure function of the config, so chunked runs re-derive identical
/// values).
struct Derived {
  std::size_t total_blocks = 0;
  std::uint64_t total_cells = 0;
  std::uint64_t total_windows = 0;
  double p_window = 0.0;
  double log_q0 = 0.0;  ///< log P(window empty)
  double s = 0.0;       ///< P(window non-empty)
};

Derived derive(const LifetimeConfig& config) {
  Derived d;
  const std::size_t blocks_per_side = config.n / config.m;
  d.total_blocks = blocks_per_side * blocks_per_side * config.crossbars;
  const std::size_t cells_per_block =
      config.m * config.m + (config.include_check_bits ? 2 * config.m : 0);
  d.total_cells = static_cast<std::uint64_t>(d.total_blocks) * cells_per_block;
  d.p_window = util::error_probability(config.fit_per_bit,
                                       config.scrub_period_hours);

  // Window count of the horizon, replicating the reference walker's
  // accumulated-sum loop bit-for-bit (a closed-form ceil could disagree
  // with `hours += period` rounding on awkward period values, and the
  // zero-rate scrub accounting is pinned exactly against the reference).
  for (double hours = 0.0; hours < config.max_hours;
       hours += config.scrub_period_hours) {
    if (hours + config.scrub_period_hours == hours) {
      // The reference walker would never terminate here; reject instead.
      throw std::invalid_argument(
          "simulate_lifetime: scrub period underflows the horizon");
    }
    ++d.total_windows;
  }

  // P(window non-empty) = 1 - (1-p)^cells, in log space for tiny p.
  d.log_q0 = d.p_window >= 1.0
                 ? -std::numeric_limits<double>::infinity()
                 : static_cast<double>(d.total_cells) * std::log1p(-d.p_window);
  d.s = -std::expm1(d.log_q0);
  return d;
}

}  // namespace

LifetimeProgress begin_lifetime(const LifetimeConfig& config, util::Rng& rng) {
  require_valid(config);
  // Reject degenerate horizon/period combinations before touching `rng`,
  // preserving simulate_lifetime's historical throw-before-draw behavior.
  (void)derive(config);
  LifetimeProgress progress;
  // The campaign's single draw; trial t rides substream t.
  progress.base_seed = rng.next();
  return progress;
}

std::size_t advance_lifetime(const LifetimeConfig& config,
                             LifetimeProgress& progress,
                             std::size_t max_trials) {
  require_valid(config);
  if (progress.ttf_hours.size() != progress.trials_done) {
    throw std::invalid_argument(
        "advance_lifetime: progress.ttf_hours out of sync with trials_done");
  }
  if (progress.trials_done >= config.trials) return 0;
  const std::size_t remaining = config.trials - progress.trials_done;
  const std::size_t count =
      max_trials == 0 ? remaining : std::min(max_trials, remaining);
  const Derived d = derive(config);

  // Per-trial TTF slots (negative = survived), appended to the progress
  // vector in trial order after the join.
  std::vector<double> ttf(count, -1.0);

  // Lane state: commutative counter sums plus reusable scratch.
  struct Lane {
    std::uint64_t scrubs = 0;
    std::uint64_t corrected = 0;
    std::size_t failures = 0;
    std::vector<std::size_t> hit_blocks;
  };

  auto run_trial = [&](Lane& out, util::Rng& trial_rng, std::size_t t) {
    if (d.s <= 0.0) {  // no events can ever land: every window is empty
      out.scrubs += d.total_windows;
      return;
    }
    std::uint64_t window = 0;  // 1-based index of the last window handled
    bool failed = false;
    while (!failed) {
      // Jump straight to the next non-empty window: `gap` empty windows,
      // then one carrying >= 1 hit.
      const std::uint64_t gap = trial_rng.geometric(d.s);
      if (gap >= d.total_windows || window + gap >= d.total_windows) break;
      window += gap + 1;
      const std::uint64_t hits = positive_binomial(trial_rng, d.total_cells,
                                                   d.p_window, d.s, d.log_q0);
      if (hits == 1) {
        ++out.corrected;
        continue;
      }
      // Assign each hit to a block; the walk and the failure predicate
      // are identical to the reference engine's.
      out.hit_blocks.clear();
      for (std::uint64_t h = 0; h < hits; ++h) {
        out.hit_blocks.push_back(
            static_cast<std::size_t>(trial_rng.uniform_below(d.total_blocks)));
      }
      std::sort(out.hit_blocks.begin(), out.hit_blocks.end());
      for (std::size_t i = 0; i + 1 < out.hit_blocks.size(); ++i) {
        if (out.hit_blocks[i] == out.hit_blocks[i + 1]) {
          failed = true;
          break;
        }
      }
      if (!failed) out.corrected += hits;
    }
    if (failed) {
      ++out.failures;
      out.scrubs += window;  // the failing scrub is the last one performed
      ttf[t] = static_cast<double>(window) * config.scrub_period_hours;
    } else {
      out.scrubs += d.total_windows;  // survived: every window was scrubbed
    }
  };

  // Absolute trial t rides substream t, so chunked runs resume exactly.
  const detail::CampaignPlan plan{progress.base_seed,
                                  /*first_substream=*/progress.trials_done,
                                  count, 1, config.threads};
  for (const Lane& partial : detail::run_campaign<Lane>(
           plan, [] { return Lane{}; }, run_trial)) {
    progress.scrubs_performed += partial.scrubs;
    progress.errors_corrected += partial.corrected;
    progress.failures += partial.failures;
  }
  progress.ttf_hours.insert(progress.ttf_hours.end(), ttf.begin(), ttf.end());
  progress.trials_done += count;
  return count;
}

LifetimeResult lifetime_result(const LifetimeProgress& progress) {
  LifetimeResult result;
  result.trials = progress.trials_done;
  result.failures = progress.failures;
  result.scrubs_performed = progress.scrubs_performed;
  result.errors_corrected = progress.errors_corrected;
  result.time_to_failure_hours = detail::fold_ttf(progress.ttf_hours);
  return result;
}

namespace {

const std::uint64_t kLifetimeMagic = util::chunk_magic("PIMECCLT");
constexpr std::uint32_t kLifetimeVersion = 1;

}  // namespace

void save_lifetime_checkpoint(std::ostream& os, const LifetimeConfig& config,
                              const LifetimeProgress& progress) {
  if (progress.ttf_hours.size() != progress.trials_done) {
    throw std::invalid_argument(
        "save_lifetime_checkpoint: progress.ttf_hours out of sync");
  }
  util::ByteWriter w;
  // Config fingerprint -- everything that shapes the distribution.
  // `threads` is deliberately excluded: the determinism contract makes it
  // a pure performance knob, and a checkpoint must be resumable on a
  // machine with a different core count.
  w.u64(config.n);
  w.u64(config.m);
  w.u64(config.crossbars);
  w.f64(config.fit_per_bit);
  w.f64(config.scrub_period_hours);
  w.u64(config.trials);
  w.f64(config.max_hours);
  w.u8(config.include_check_bits ? 1 : 0);

  w.u64(progress.base_seed);
  w.u64(progress.trials_done);
  w.u64(progress.failures);
  w.u64(progress.scrubs_performed);
  w.u64(progress.errors_corrected);
  for (const double ttf : progress.ttf_hours) w.f64(ttf);

  util::write_chunk(os, kLifetimeMagic, kLifetimeVersion, w.data());
}

LifetimeProgress load_lifetime_checkpoint(std::istream& is,
                                          const LifetimeConfig& config) {
  const util::Chunk chunk = util::read_chunk(is, kLifetimeMagic,
                                             kLifetimeVersion);
  util::ByteReader r(chunk.payload);
  const bool same =
      r.u64() == config.n && r.u64() == config.m &&
      r.u64() == config.crossbars && r.f64() == config.fit_per_bit &&
      r.f64() == config.scrub_period_hours && r.u64() == config.trials &&
      r.f64() == config.max_hours &&
      r.u8() == (config.include_check_bits ? 1 : 0);
  if (!same) {
    throw util::SerializeError(
        "lifetime checkpoint configuration mismatch (saved for a different "
        "campaign)");
  }

  LifetimeProgress progress;
  progress.base_seed = r.u64();
  progress.trials_done = static_cast<std::size_t>(r.u64());
  progress.failures = static_cast<std::size_t>(r.u64());
  progress.scrubs_performed = r.u64();
  progress.errors_corrected = r.u64();
  if (progress.trials_done > config.trials ||
      progress.failures > progress.trials_done) {
    throw util::SerializeError("lifetime checkpoint progress out of range");
  }
  progress.ttf_hours.reserve(progress.trials_done);
  std::size_t observed_failures = 0;
  for (std::size_t t = 0; t < progress.trials_done; ++t) {
    const double ttf = r.f64();
    if (std::isnan(ttf)) {
      throw util::SerializeError("lifetime checkpoint TTF is NaN");
    }
    if (ttf >= 0.0) ++observed_failures;
    progress.ttf_hours.push_back(ttf);
  }
  if (observed_failures != progress.failures) {
    throw util::SerializeError(
        "lifetime checkpoint failure count disagrees with per-trial TTFs");
  }
  r.require_exhausted();
  return progress;
}

LifetimeResult simulate_lifetime(const LifetimeConfig& config, util::Rng& rng) {
  LifetimeProgress progress = begin_lifetime(config, rng);
  advance_lifetime(config, progress);
  return lifetime_result(progress);
}

double analytic_mttf_hours(const LifetimeConfig& config) {
  ReliabilityQuery query;
  query.fit_per_bit = config.fit_per_bit;
  query.check_period_hours = config.scrub_period_hours;
  query.n = config.n;
  query.m = config.m;
  query.memory_bits = static_cast<std::uint64_t>(config.crossbars) *
                      config.n * config.n;
  query.include_check_bits = config.include_check_bits;
  return evaluate_proposed(query).mttf_hours;
}

}  // namespace pimecc::rel
