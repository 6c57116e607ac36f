// pimecc -- reliability/scenario.hpp
//
// Scenario-diversity lifetime engine: Monte Carlo memory lifetimes under a
// *mix* of fault mechanisms (iid soft errors, activation-induced
// disturbance, correlated inter-block bursts, transient-vs-stuck-at cells)
// scrubbed by a pluggable policy (scrub_policy.hpp), instead of the single
// iid-errors + full-periodic-scrub scenario of lifetime.hpp.
//
// The engine tracks each trial's memory as a sparse diff against the
// golden image, per m x m block (data cells and, optionally, the block's
// 2m check bits).  The failure predicate is the first instant any block
// holds >= 2 differing cells -- exactly the diagonal code's per-block
// corruption condition (one error per block is always repaired; two or
// more make silent miscorrection possible), evaluated in O(active faults)
// per trial without materializing a BitMatrix.  With the iid model alone
// and the periodic policy, this reproduces lifetime.hpp's reference-walker
// distribution; bench_scenarios and test_scenarios pin the two engines
// against each other (exact scrub accounting at zero fault rate,
// statistical bands on the hot configuration).
//
// Determinism contract (the campaign driver's, reliability/campaign.hpp):
// run_scenario draws exactly ONE value from the caller's rng, trial t runs
// on substream t, and results are bit-identical at any thread count.  The
// scrub schedule is planned once, deterministically, before any trial
// runs; trials never consult each other.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/burst.hpp"
#include "reliability/scrub_policy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pimecc::rel {

/// Deterministic synthetic workload: every row sustains
/// `activations_per_hour` wordline activations, except the leading
/// `hot_row_fraction` of rows which run at `hot_multiplier` times that --
/// the skewed access pattern that makes activation-aware scrub policies and
/// the disturbance model interesting.  (Campaigns replaying a *measured*
/// workload can bypass this and feed Crossbar::row_activation_snapshot()
/// rates straight into ScrubPlanContext / fault::DisturbanceModel.)
struct WorkloadModel {
  double activations_per_hour = 1000.0;
  double hot_row_fraction = 0.1;
  double hot_multiplier = 8.0;
};

/// The canonical workload used by the bench/serve presets.
[[nodiscard]] WorkloadModel canonical_workload() noexcept;

/// Expands a workload into per-row activation rates (activations/hour),
/// length n: the leading floor(hot_row_fraction * n) rows are hot.
[[nodiscard]] std::vector<double> row_activation_rates(
    const WorkloadModel& workload, std::size_t n);

/// Which fault mechanisms act on the memory, and how hard.  Every rate of 0
/// disables its mechanism entirely (including its randomness consumption).
struct FaultMix {
  /// iid soft errors (the paper's SER), FIT/bit over data + check cells.
  double fit_per_bit = 0.0;
  /// Activation-induced disturbance hazard per effective aggressor
  /// activation (fault::DisturbanceParams::flip_probability_per_activation).
  double disturb_per_activation = 0.0;
  std::size_t disturb_radius = 1;
  /// Correlated burst events (fault::correlated_burst_cells), Poisson
  /// arrivals at this rate.
  double bursts_per_hour = 0.0;
  std::size_t burst_length = 4;
  fault::BurstShape burst_shape = fault::BurstShape::kVertical;
  double burst_spread_probability = 0.25;
  /// Probability that a newly faulted cell is stuck-at (latched) rather
  /// than transient; stuck cells re-flip after every repair until replaced
  /// after `replace_after_repairs` repairs (fault::StuckAtSet).
  /// Disturbance flips are always transient.
  double stuck_probability = 0.0;
  std::size_t replace_after_repairs = 3;
};

/// Named fault-mix presets used by bench_scenarios, `pimecc sweep
/// --scenarios`, and the serve layer: "iid", "disturb", "burst", "stuckat",
/// "mixed".  Each starts from a default-constructed mix with the given SER
/// and enables its mechanism at calibrated strength.  Returns false on an
/// unknown name, leaving `out` untouched.
bool apply_fault_preset(std::string_view name, double fit_per_bit, FaultMix& out);

/// The preset names, in canonical campaign order.
[[nodiscard]] std::span<const std::string_view> fault_preset_names() noexcept;

/// One scenario campaign.
struct ScenarioConfig {
  std::size_t n = 60;            ///< array dimension
  std::size_t m = 15;            ///< block size (must divide n)
  std::size_t trials = 100;
  double max_hours = 240.0;      ///< per-trial horizon
  bool include_check_bits = true;
  std::size_t threads = 1;       ///< executor lanes; 0 = full shared width
  WorkloadModel workload;
  FaultMix faults;
  ScrubPolicyConfig policy;
};

/// Campaign outcome.  Counter semantics: `faults_injected` counts fault
/// *applications* (including re-hits of already-faulty or stuck cells);
/// `errors_corrected` counts single-error block repairs of transient
/// faults; `stuck_repairs` counts repair attempts on stuck cells (undone by
/// the cell re-asserting its latched value) and `cells_replaced` those that
/// reached the spare-remap threshold.
struct ScenarioResult {
  std::size_t trials = 0;
  std::size_t failures = 0;
  util::RunningStats time_to_failure_hours;  ///< over failed trials
  std::uint64_t scrub_events = 0;
  std::uint64_t blocks_scrubbed = 0;
  std::uint64_t cells_scrubbed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t errors_corrected = 0;
  std::uint64_t stuck_repairs = 0;
  std::uint64_t cells_replaced = 0;

  /// Censored-campaign MTTF, same convention as LifetimeResult: failed
  /// trials contribute their TTF, censored trials `horizon`; with zero
  /// failures returns the total exposure horizon * trials.
  [[nodiscard]] double empirical_mttf_hours(double horizon) const noexcept;

  /// Scrub overhead: cells checked per memory-hour of exposure -- the cost
  /// axis of the MTTF-vs-overhead frontier in bench_scenarios.
  [[nodiscard]] double scrub_cells_per_hour(double horizon) const noexcept;
};

/// Runs the campaign.  Draws exactly one value from `rng`; see the file
/// comment for the determinism contract.  Throws std::invalid_argument on
/// an invalid configuration before consuming any randomness.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config,
                                          util::Rng& rng);

}  // namespace pimecc::rel
