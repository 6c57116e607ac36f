// pimecc -- reliability/lifetime.hpp
//
// Discrete-time lifetime simulation of a multi-crossbar memory: soft
// errors arrive continuously at a constant SER, the full memory is
// scrubbed every T hours, and the memory *fails* the first time a scrub
// meets a block carrying more than one error (silent corruption becomes
// possible).  Running many lifetimes yields an empirical MTTF that the
// Section V-A closed form must predict -- the strongest end-to-end check
// of Figure 6's machinery, complementing the per-block Monte Carlo.
//
// The engine is event-driven: instead of walking every scrub window of a
// multi-year horizon one binomial at a time, it samples the index of the
// next NON-EMPTY window directly (windows are iid, so the gap is geometric
// in P(window non-empty); util::Rng::geometric) and then draws the window's
// hit count from the binomial conditioned on >= 1 -- identical in
// distribution to the window-by-window walk, at O(events) instead of
// O(windows) per trial.  Trials run on the campaign driver
// (reliability/campaign.hpp): one base seed drawn from the caller, trial t
// on substream t, per-trial TTFs folded in trial order, so results are
// bit-identical for any thread count.  Since skip-ahead resamples the
// stream, the original walker is retained as
// reference_simulate_lifetime (reference_reliability.hpp) and the two are
// pinned by equivalence-of-distribution tests, not bit equality.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pimecc::rel {

/// Configuration of one lifetime campaign.
struct LifetimeConfig {
  std::size_t n = 60;             ///< per-crossbar dimension
  std::size_t m = 15;             ///< block size
  std::size_t crossbars = 4;      ///< units in the memory
  double fit_per_bit = 0.0;       ///< SER (use high rates for tractability)
  double scrub_period_hours = 24.0;
  std::size_t trials = 100;
  double max_hours = 1e7;         ///< per-trial simulation horizon
  bool include_check_bits = true;
  std::size_t threads = 1;        ///< executor lanes; 0 = full shared-executor width
};

/// Campaign outcome.
struct LifetimeResult {
  std::size_t trials = 0;
  std::size_t failures = 0;       ///< trials that failed within the horizon
  util::RunningStats time_to_failure_hours;  ///< over failed trials
  std::uint64_t scrubs_performed = 0;
  std::uint64_t errors_corrected = 0;

  /// Empirical MTTF from a censored campaign: total observed exposure
  /// (failed trials contribute their TTF, censored trials the full
  /// `horizon`) divided by the failure count -- the standard censored-data
  /// MLE for an exponential lifetime.  With failures == 0 the MLE is
  /// undefined; by convention the function returns `horizon * trials`,
  /// i.e. the total exposure, which lower-bounds any MTTF consistent with
  /// observing zero failures.
  [[nodiscard]] double empirical_mttf_hours(double horizon) const noexcept;
};

/// Running state of a campaign, resumable at any trial boundary.  Because
/// trial t rides its own for_stream substream, the first `trials_done`
/// trials are a closed set: no random draw of a later trial depends on
/// them, so a campaign advanced in chunks (possibly serialized to disk and
/// reloaded between chunks, possibly at a different thread count) produces
/// results bit-identical to one uninterrupted run.
struct LifetimeProgress {
  std::uint64_t base_seed = 0;   ///< seeds substream t for trial t
  std::size_t trials_done = 0;   ///< trials completed so far
  std::size_t failures = 0;
  std::uint64_t scrubs_performed = 0;
  std::uint64_t errors_corrected = 0;
  /// Per-trial time to failure in hours for trials [0, trials_done);
  /// negative means the trial survived the horizon.
  std::vector<double> ttf_hours;
};

/// Starts a campaign: validates `config` and draws exactly ONE value from
/// `rng` (the base seed), just like simulate_lifetime.
[[nodiscard]] LifetimeProgress begin_lifetime(const LifetimeConfig& config,
                                              util::Rng& rng);

/// Runs up to `max_trials` more trials (0 = all remaining) on the shared
/// executor and folds them into `progress`.  Returns the number of trials
/// actually run.  `config` must be the campaign's own configuration --
/// except `threads`, which may vary freely between calls without changing
/// any result bit.
std::size_t advance_lifetime(const LifetimeConfig& config,
                             LifetimeProgress& progress,
                             std::size_t max_trials = 0);

[[nodiscard]] inline bool lifetime_complete(
    const LifetimeConfig& config, const LifetimeProgress& progress) noexcept {
  return progress.trials_done >= config.trials;
}

/// Folds `progress` into the campaign outcome (over the trials completed so
/// far; `result.trials` is progress.trials_done).
[[nodiscard]] LifetimeResult lifetime_result(const LifetimeProgress& progress);

/// Writes one resumable-campaign chunk (magic "PIMECCLT"): the config
/// fingerprint (minus `threads`) plus the full LifetimeProgress.
void save_lifetime_checkpoint(std::ostream& os, const LifetimeConfig& config,
                              const LifetimeProgress& progress);

/// Reads a campaign chunk and validates it against `config`: every field
/// but `threads` must match the saved fingerprint bit-for-bit (resuming
/// under a different configuration would silently mix distributions).
/// Throws util::SerializeError on any defect; never returns partial state.
[[nodiscard]] LifetimeProgress load_lifetime_checkpoint(
    std::istream& is, const LifetimeConfig& config);

/// Runs the campaign with the skip-ahead engine.  Draws exactly one value
/// from `rng`; see the file comment for the determinism contract.
/// Equivalent by construction to begin_lifetime + advance_lifetime(all) +
/// lifetime_result -- the chunked and uninterrupted paths share this one
/// code path, which is what the checkpoint/resume bit-identity tests pin.
[[nodiscard]] LifetimeResult simulate_lifetime(const LifetimeConfig& config,
                                               util::Rng& rng);

/// The closed-form MTTF prediction for the same configuration (the Figure 6
/// model applied to `crossbars` units of n x n instead of 1 GB).
[[nodiscard]] double analytic_mttf_hours(const LifetimeConfig& config);

}  // namespace pimecc::rel
