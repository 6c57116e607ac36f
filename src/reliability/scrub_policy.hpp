// pimecc -- reliability/scrub_policy.hpp
//
// Scrub scheduling for the scenario engine (scenario.hpp).  The
// paper's reliability analysis scrubs the whole memory every T hours; an
// adaptive controller can do better under non-uniform workloads by
// scrubbing hot regions more often and cold regions less.  plan_scrubs
// turns a campaign's geometry + per-row activation rates into the full
// deterministic schedule of scrub events up front: which block-row bands
// are scrubbed, and when.
//
// Scheduling is a pure function of the configuration -- policies see the
// deterministic workload *rates*, never a trial's random state -- which is
// what keeps scenario trials on the substream-determinism contract:
// every trial of a campaign replays the same schedule, randomness lives
// entirely in the trial's own Rng substream, and results are bit-identical
// at any thread count.
//
// Granularity is the block-row band (rows [b*m, (b+1)*m)), matching
// ArrayCode::scrub_band / PimMachine::check_block_row: that is the unit
// the architecture's checking crossbar actually verifies per pass.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace pimecc::rel {

enum class ScrubPolicyKind : unsigned char {
  kPeriodic,             ///< full scrub every period_hours (the paper's baseline)
  kActivationTriggered,  ///< per-band cadence from the band's activation rate
  kRegionPeriodic,       ///< round-robin region scrubs every region_period_hours
  kHotRowPriority,       ///< hot bands every hot_period_hours + periodic fulls
};

[[nodiscard]] const char* to_string(ScrubPolicyKind kind) noexcept;

/// Parameters of one policy instance.  `period_hours` is the full-scrub
/// period for kPeriodic and the per-band backstop for the adaptive
/// policies (no band ever waits longer than the backstop between scrubs).
struct ScrubPolicyConfig {
  ScrubPolicyKind kind = ScrubPolicyKind::kPeriodic;
  double period_hours = 24.0;
  /// kActivationTriggered: a band is scrubbed whenever its hottest row
  /// accumulates this many activations since the band's last scrub.
  std::uint64_t activation_budget = 100000;
  /// kRegionPeriodic: number of round-robin band groups (band b belongs to
  /// region b % regions) and the interval between region scrubs.
  std::size_t regions = 4;
  double region_period_hours = 6.0;
  /// kHotRowPriority: cadence of the hot-band-only scrubs.
  double hot_period_hours = 6.0;
};

/// Throws std::invalid_argument on non-positive periods, a zero activation
/// budget, or zero regions.
void require_valid(const ScrubPolicyConfig& config);

/// One scheduled scrub: at `hours`, the listed block-row bands are checked
/// and repaired.  An empty `bands` list means a full scrub (every band).
struct ScrubEvent {
  double hours = 0.0;
  std::vector<std::size_t> bands;  ///< sorted, distinct; empty = all bands

  [[nodiscard]] bool full() const noexcept { return bands.empty(); }
};

/// What a policy plans against.
struct ScrubPlanContext {
  std::size_t n = 0;             ///< array dimension (rows)
  std::size_t m = 0;             ///< block size; bands = n / m
  double horizon_hours = 0.0;    ///< campaign horizon
  /// Deterministic per-row activation rates (activations/hour), length n.
  std::span<const double> row_activation_rates;
};

/// The deterministic schedule of `config`'s policy (validated first; see
/// the file comment for the determinism contract), in strictly increasing
/// time order, of every scrub whose preceding inter-scrub window *starts*
/// before ctx.horizon_hours (so the final event may land past the horizon
/// -- the same one-scrub-per-started-window accounting as the lifetime
/// engine's reference walker, which is what makes the two engines'
/// zero-rate scrub counts exactly comparable).  Events scheduled for the
/// same instant are merged into one event (union of bands).  Throws
/// std::invalid_argument on an invalid config or context and
/// std::length_error if the schedule would exceed an internal sanity cap
/// (~10M events).
[[nodiscard]] std::vector<ScrubEvent> plan_scrubs(const ScrubPolicyConfig& config,
                                                  const ScrubPlanContext& ctx);

/// Named policy presets used by bench_scenarios, `pimecc sweep
/// --scenarios`, and the serve layer: "periodic", "activation", "region",
/// "hotrow".  Returns false on an unknown name, leaving `out` untouched.
bool apply_policy_preset(std::string_view name, ScrubPolicyConfig& out);

/// The preset names, in canonical campaign order.
[[nodiscard]] std::span<const std::string_view> scrub_policy_preset_names() noexcept;

}  // namespace pimecc::rel
