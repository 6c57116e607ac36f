#include "reliability/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "fault/disturbance.hpp"
#include "fault/injector.hpp"
#include "fault/models.hpp"
#include "reliability/campaign.hpp"
#include "util/units.hpp"

namespace pimecc::rel {

namespace {

void require_valid(const ScenarioConfig& config) {
  if (config.m == 0 || config.n == 0 || config.n % config.m != 0) {
    throw std::invalid_argument("ScenarioConfig: n must be a positive multiple of m");
  }
  if (config.trials == 0) {
    throw std::invalid_argument("ScenarioConfig: trials must be positive");
  }
  if (!(config.max_hours > 0.0) || !std::isfinite(config.max_hours)) {
    throw std::invalid_argument("ScenarioConfig: max_hours must be positive and finite");
  }
  const WorkloadModel& w = config.workload;
  if (w.activations_per_hour < 0.0 || !std::isfinite(w.activations_per_hour) ||
      !(w.hot_row_fraction >= 0.0 && w.hot_row_fraction <= 1.0) ||
      w.hot_multiplier < 0.0 || !std::isfinite(w.hot_multiplier)) {
    throw std::invalid_argument("ScenarioConfig: invalid workload model");
  }
  const FaultMix& f = config.faults;
  if (f.fit_per_bit < 0.0 || !std::isfinite(f.fit_per_bit)) {
    throw std::invalid_argument("ScenarioConfig: fit_per_bit must be >= 0");
  }
  if (f.disturb_per_activation < 0.0 || !std::isfinite(f.disturb_per_activation)) {
    throw std::invalid_argument("ScenarioConfig: disturb_per_activation must be >= 0");
  }
  if (f.disturb_radius == 0) {
    throw std::invalid_argument("ScenarioConfig: disturb_radius must be >= 1");
  }
  if (f.bursts_per_hour < 0.0 || !std::isfinite(f.bursts_per_hour)) {
    throw std::invalid_argument("ScenarioConfig: bursts_per_hour must be >= 0");
  }
  if (f.burst_length == 0) {
    throw std::invalid_argument("ScenarioConfig: burst_length must be >= 1");
  }
  if (!(f.burst_spread_probability >= 0.0 && f.burst_spread_probability <= 1.0)) {
    throw std::invalid_argument(
        "ScenarioConfig: burst_spread_probability must be in [0, 1]");
  }
  if (!(f.stuck_probability >= 0.0 && f.stuck_probability <= 1.0)) {
    throw std::invalid_argument("ScenarioConfig: stuck_probability must be in [0, 1]");
  }
  if (f.replace_after_repairs == 0) {
    throw std::invalid_argument("ScenarioConfig: replace_after_repairs must be >= 1");
  }
  rel::require_valid(config.policy);
}

/// Flat cell addressing shared by every mechanism: data cell (r, c) is slot
/// r * n + c; check bit `idx` on axis a of block (bR, bC) is slot
/// n^2 + (bR * nb + bC) * 2m + a * m + idx.  The block of any slot is thus
/// a pure index computation -- no per-cell state beyond the sparse diffs.
struct SlotMap {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t nb = 0;          ///< blocks per side
  std::size_t data_cells = 0;  ///< n^2
  std::size_t population = 0;  ///< n^2 (+ 2m * nb^2 with check bits)

  SlotMap(std::size_t n_, std::size_t m_, bool include_check_bits)
      : n(n_), m(m_), nb(n_ / m_), data_cells(n_ * n_) {
    population = data_cells + (include_check_bits ? nb * nb * 2 * m : 0);
  }

  [[nodiscard]] std::size_t block_of(std::size_t slot) const noexcept {
    if (slot < data_cells) {
      return (slot / n) / m * nb + (slot % n) / m;
    }
    return (slot - data_cells) / (2 * m);
  }
};

/// Per-lane accumulator: commutative counters plus trial-reused scratch.
struct Lane {
  std::size_t failures = 0;
  std::uint64_t scrub_events = 0;
  std::uint64_t blocks_scrubbed = 0;
  std::uint64_t cells_scrubbed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t errors_corrected = 0;
  std::uint64_t stuck_repairs = 0;
  std::uint64_t cells_replaced = 0;

  std::vector<std::vector<std::size_t>> block_diffs;  ///< slots != golden
  std::vector<std::size_t> scratch;
  std::vector<double> window_activations;
  std::vector<fault::DataFlip> disturb_flips;
};

}  // namespace

WorkloadModel canonical_workload() noexcept { return WorkloadModel{}; }

std::vector<double> row_activation_rates(const WorkloadModel& workload,
                                         std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("row_activation_rates: n must be positive");
  }
  const auto hot_rows =
      static_cast<std::size_t>(workload.hot_row_fraction * static_cast<double>(n));
  std::vector<double> rates(n, workload.activations_per_hour);
  for (std::size_t r = 0; r < hot_rows; ++r) {
    rates[r] = workload.activations_per_hour * workload.hot_multiplier;
  }
  return rates;
}

bool apply_fault_preset(std::string_view name, double fit_per_bit, FaultMix& out) {
  FaultMix preset;
  preset.fit_per_bit = fit_per_bit;
  if (name == "iid") {
    // Pure SER: the lifetime.hpp scenario, the cross-check anchor.
  } else if (name == "disturb") {
    // ~0.4 extra flips per 24 h window near the hot rows at the canonical
    // workload (hot aggressors at 8000 activations/h, radius 1).
    preset.disturb_per_activation = 2e-9;
    preset.disturb_radius = 1;
  } else if (name == "burst") {
    preset.bursts_per_hour = 2e-4;
    preset.burst_length = 4;
    preset.burst_shape = fault::BurstShape::kVertical;
    preset.burst_spread_probability = 0.25;
  } else if (name == "stuckat") {
    preset.stuck_probability = 0.25;
    preset.replace_after_repairs = 3;
  } else if (name == "mixed") {
    preset.disturb_per_activation = 1e-9;
    preset.disturb_radius = 1;
    preset.bursts_per_hour = 1e-4;
    preset.burst_length = 4;
    preset.burst_shape = fault::BurstShape::kVertical;
    preset.burst_spread_probability = 0.25;
    preset.stuck_probability = 0.1;
    preset.replace_after_repairs = 3;
  } else {
    return false;
  }
  out = preset;
  return true;
}

std::span<const std::string_view> fault_preset_names() noexcept {
  static constexpr std::array<std::string_view, 5> kNames = {
      "iid", "disturb", "burst", "stuckat", "mixed"};
  return kNames;
}

double ScenarioResult::empirical_mttf_hours(double horizon) const noexcept {
  return detail::censored_mttf_hours(time_to_failure_hours, trials, failures,
                                     horizon);
}

double ScenarioResult::scrub_cells_per_hour(double horizon) const noexcept {
  const double exposure = detail::censored_exposure_hours(
      time_to_failure_hours, trials, failures, horizon);
  if (!(exposure > 0.0)) return 0.0;
  return static_cast<double>(cells_scrubbed) / exposure;
}

ScenarioResult run_scenario(const ScenarioConfig& config, util::Rng& rng) {
  require_valid(config);

  const std::vector<double> rates = row_activation_rates(config.workload, config.n);
  const std::vector<ScrubEvent> plan =
      plan_scrubs(config.policy, {config.n, config.m, config.max_hours, rates});

  const SlotMap map(config.n, config.m, config.include_check_bits);
  const FaultMix& mix = config.faults;
  const std::size_t blocks = map.nb * map.nb;
  const std::size_t cells_per_block =
      config.m * config.m + (config.include_check_bits ? 2 * config.m : 0);
  const double iid_fit = mix.fit_per_bit;
  const bool use_disturb = mix.disturb_per_activation > 0.0;
  const bool use_bursts = mix.bursts_per_hour > 0.0;
  const fault::DisturbanceModel disturb(
      config.n, config.n,
      {mix.disturb_per_activation, mix.disturb_radius, /*activation_floor=*/0});

  // The campaign's single draw; trial t rides substream t.
  const detail::CampaignPlan campaign{rng.next(), /*first_substream=*/0,
                                      config.trials, 1, config.threads};
  std::vector<double> ttf_slots(config.trials, -1.0);

  auto run_trial = [&](Lane& lane, util::Rng& trial_rng, std::size_t t) {
    fault::StuckAtSet stuck(mix.replace_after_repairs);
    lane.block_diffs.resize(blocks);
    for (std::vector<std::size_t>& diffs : lane.block_diffs) diffs.clear();

    // One injection: toggle the slot's membership in its block's diff set
    // (a re-flip of a faulty cell restores it -- XOR semantics), unless the
    // cell is stuck, in which case it is pinned at its latched value and
    // the injection has no effect.  A fresh fault may latch (stuck-at) when
    // the mechanism produces persistent damage; disturbance is transient by
    // nature and never sticks.
    auto apply_fault = [&](std::size_t slot, bool may_stick) {
      ++lane.faults_injected;
      if (stuck.is_stuck(slot)) return;
      std::vector<std::size_t>& diffs = lane.block_diffs[map.block_of(slot)];
      const auto it = std::find(diffs.begin(), diffs.end(), slot);
      if (it != diffs.end()) {
        diffs.erase(it);
        return;
      }
      diffs.push_back(slot);
      if (may_stick && mix.stuck_probability > 0.0 &&
          trial_rng.bernoulli(mix.stuck_probability)) {
        stuck.mark(slot);
      }
    };

    double prev = 0.0;
    double ttf = -1.0;
    for (const ScrubEvent& event : plan) {
      const double dt = event.hours - prev;

      // --- fault arrival over (prev, event.hours], fixed mechanism order --
      if (iid_fit > 0.0) {
        const double p = util::error_probability(iid_fit, dt);
        const std::size_t count = trial_rng.binomial(map.population, p);
        if (count > 0) {
          fault::sample_distinct(trial_rng, map.population, count, lane.scratch);
          for (const std::size_t slot : lane.scratch) {
            apply_fault(slot, /*may_stick=*/true);
          }
        }
      }
      if (use_disturb) {
        lane.window_activations.resize(config.n);
        for (std::size_t r = 0; r < config.n; ++r) {
          lane.window_activations[r] = rates[r] * dt;
        }
        lane.disturb_flips.clear();
        disturb.sample(trial_rng, lane.window_activations, lane.disturb_flips,
                       lane.scratch);
        for (const fault::DataFlip& flip : lane.disturb_flips) {
          apply_fault(flip.r * config.n + flip.c, /*may_stick=*/false);
        }
      }
      if (use_bursts) {
        const std::size_t arrivals = trial_rng.poisson(mix.bursts_per_hour * dt);
        for (std::size_t a = 0; a < arrivals; ++a) {
          const std::vector<fault::DataFlip> cells = fault::correlated_burst_cells(
              trial_rng, config.n, config.n, config.m, mix.burst_length,
              mix.burst_shape, mix.burst_spread_probability);
          for (const fault::DataFlip& flip : cells) {
            apply_fault(flip.r * config.n + flip.c, /*may_stick=*/true);
          }
        }
      }

      // --- failure predicate, evaluated before the scrub can mask it ------
      for (const std::vector<std::size_t>& diffs : lane.block_diffs) {
        if (diffs.size() >= 2) {
          ttf = event.hours;
          break;
        }
      }
      if (ttf >= 0.0) break;

      // --- the scrub itself: every covered block holds at most one diff ---
      ++lane.scrub_events;
      auto scrub_block = [&](std::size_t b) {
        std::vector<std::size_t>& diffs = lane.block_diffs[b];
        if (diffs.empty()) return;
        const std::size_t slot = diffs.front();
        if (stuck.is_stuck(slot)) {
          ++lane.stuck_repairs;
          if (stuck.on_repair(slot)) {
            ++lane.cells_replaced;
            diffs.clear();  // remapped to a spare: repaired for good
          }
          // else: the latched cell re-asserts its value; the diff persists.
        } else {
          ++lane.errors_corrected;
          diffs.clear();
        }
      };
      std::size_t covered = 0;
      if (event.full()) {
        for (std::size_t b = 0; b < blocks; ++b) scrub_block(b);
        covered = blocks;
      } else {
        for (const std::size_t band : event.bands) {
          for (std::size_t j = 0; j < map.nb; ++j) {
            scrub_block(band * map.nb + j);
          }
        }
        covered = event.bands.size() * map.nb;
      }
      lane.blocks_scrubbed += covered;
      lane.cells_scrubbed += covered * cells_per_block;

      prev = event.hours;
      if (prev >= config.max_hours) break;
    }

    if (ttf >= 0.0) ++lane.failures;
    ttf_slots[t] = ttf;
  };

  const std::vector<Lane> lanes =
      detail::run_campaign<Lane>(campaign, [] { return Lane{}; }, run_trial);

  ScenarioResult result;
  result.trials = config.trials;
  for (const Lane& lane : lanes) {
    result.failures += lane.failures;
    result.scrub_events += lane.scrub_events;
    result.blocks_scrubbed += lane.blocks_scrubbed;
    result.cells_scrubbed += lane.cells_scrubbed;
    result.faults_injected += lane.faults_injected;
    result.errors_corrected += lane.errors_corrected;
    result.stuck_repairs += lane.stuck_repairs;
    result.cells_replaced += lane.cells_replaced;
  }
  result.time_to_failure_hours = detail::fold_ttf(ttf_slots);
  return result;
}

}  // namespace pimecc::rel
