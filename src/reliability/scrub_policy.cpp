#include "reliability/scrub_policy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace pimecc::rel {

namespace {

// Backstop against degenerate configurations (e.g. a microsecond period over
// a decade horizon) producing schedules that could never be simulated anyway.
constexpr std::size_t kMaxScheduleEvents = 10'000'000;

void require_context(const ScrubPlanContext& ctx) {
  if (ctx.m == 0 || ctx.n == 0 || ctx.n % ctx.m != 0) {
    throw std::invalid_argument("plan_scrubs: n must be a positive multiple of m");
  }
  if (!(ctx.horizon_hours > 0.0) || !std::isfinite(ctx.horizon_hours)) {
    throw std::invalid_argument("plan_scrubs: horizon must be positive and finite");
  }
  if (ctx.row_activation_rates.size() != ctx.n) {
    throw std::invalid_argument(
        "plan_scrubs: row_activation_rates must have one entry per row");
  }
  for (const double rate : ctx.row_activation_rates) {
    if (rate < 0.0 || !std::isfinite(rate)) {
      throw std::invalid_argument(
          "plan_scrubs: activation rates must be finite and non-negative");
    }
  }
}

/// Emits the periodic stream t = period, 2*period, ... ; an event is kept
/// while its window start (k*period) is before the horizon, so the final
/// event may overhang -- the lifetime engine's accounting (see plan_scrubs).
template <typename Emit>
void emit_periodic_stream(double period, double horizon, Emit&& emit) {
  for (std::size_t k = 0;; ++k) {
    const double start = static_cast<double>(k) * period;
    if (start >= horizon) break;
    if (k >= kMaxScheduleEvents) {
      throw std::length_error("plan_scrubs: schedule exceeds sanity cap");
    }
    emit(static_cast<double>(k + 1) * period);
  }
}

/// Sorts raw per-stream events by time and merges coincident ones: a full
/// event absorbs band lists; a band union covering every band becomes full.
std::vector<ScrubEvent> coalesce(std::vector<ScrubEvent> raw, std::size_t bands) {
  if (raw.size() > kMaxScheduleEvents) {
    throw std::length_error("plan_scrubs: schedule exceeds sanity cap");
  }
  std::sort(raw.begin(), raw.end(), [](const ScrubEvent& a, const ScrubEvent& b) {
    return a.hours < b.hours;
  });
  std::vector<ScrubEvent> merged;
  merged.reserve(raw.size());
  for (ScrubEvent& event : raw) {
    if (!merged.empty() && merged.back().hours == event.hours) {
      ScrubEvent& into = merged.back();
      if (into.full() || event.full()) {
        into.bands.clear();
      } else {
        into.bands.insert(into.bands.end(), event.bands.begin(), event.bands.end());
      }
    } else {
      merged.push_back(std::move(event));
    }
  }
  for (ScrubEvent& event : merged) {
    if (event.full()) continue;
    std::sort(event.bands.begin(), event.bands.end());
    event.bands.erase(std::unique(event.bands.begin(), event.bands.end()),
                      event.bands.end());
    if (event.bands.size() == bands) event.bands.clear();
  }
  return merged;
}

std::vector<ScrubEvent> plan_periodic(const ScrubPolicyConfig& config,
                                      const ScrubPlanContext& ctx) {
  std::vector<ScrubEvent> events;
  emit_periodic_stream(config.period_hours, ctx.horizon_hours,
                       [&](double t) { events.push_back({t, {}}); });
  return events;
}

std::vector<ScrubEvent> plan_region_periodic(const ScrubPolicyConfig& config,
                                             const ScrubPlanContext& ctx) {
  const std::size_t bands = ctx.n / ctx.m;
  const std::size_t regions = std::min(config.regions, bands);
  std::vector<ScrubEvent> events;
  std::size_t k = 0;
  emit_periodic_stream(config.region_period_hours, ctx.horizon_hours, [&](double t) {
    ScrubEvent event{t, {}};
    for (std::size_t b = k % regions; b < bands; b += regions) {
      event.bands.push_back(b);
    }
    ++k;
    events.push_back(std::move(event));
  });
  return coalesce(std::move(events), bands);
}

std::vector<ScrubEvent> plan_activation_triggered(const ScrubPolicyConfig& config,
                                                  const ScrubPlanContext& ctx) {
  const std::size_t bands = ctx.n / ctx.m;
  const double backstop = config.period_hours;
  std::vector<ScrubEvent> events;
  for (std::size_t b = 0; b < bands; ++b) {
    // The band's cadence is set by its hottest row: scrub once that row
    // has accumulated `activation_budget` activations, but never wait
    // longer than the backstop period.
    double peak_rate = 0.0;
    for (std::size_t r = b * ctx.m; r < (b + 1) * ctx.m; ++r) {
      peak_rate = std::max(peak_rate, ctx.row_activation_rates[r]);
    }
    double period = backstop;
    if (peak_rate > 0.0) {
      period = std::min(
          backstop, static_cast<double>(config.activation_budget) / peak_rate);
    }
    emit_periodic_stream(period, ctx.horizon_hours,
                         [&](double t) { events.push_back({t, {b}}); });
  }
  return coalesce(std::move(events), bands);
}

std::vector<ScrubEvent> plan_hot_row_priority(const ScrubPolicyConfig& config,
                                              const ScrubPlanContext& ctx) {
  const std::size_t bands = ctx.n / ctx.m;
  // Hot bands are those containing any row strictly hotter than the
  // coldest row in the array; under a uniform workload there are none and
  // the policy degenerates to the periodic baseline.
  const double floor = *std::min_element(ctx.row_activation_rates.begin(),
                                         ctx.row_activation_rates.end());
  std::vector<std::size_t> hot;
  for (std::size_t b = 0; b < bands; ++b) {
    for (std::size_t r = b * ctx.m; r < (b + 1) * ctx.m; ++r) {
      if (ctx.row_activation_rates[r] > floor) {
        hot.push_back(b);
        break;
      }
    }
  }
  std::vector<ScrubEvent> events;
  emit_periodic_stream(config.period_hours, ctx.horizon_hours,
                       [&](double t) { events.push_back({t, {}}); });
  if (!hot.empty()) {
    emit_periodic_stream(config.hot_period_hours, ctx.horizon_hours,
                         [&](double t) { events.push_back({t, hot}); });
  }
  return coalesce(std::move(events), bands);
}

}  // namespace

const char* to_string(ScrubPolicyKind kind) noexcept {
  switch (kind) {
    case ScrubPolicyKind::kPeriodic:
      return "periodic";
    case ScrubPolicyKind::kActivationTriggered:
      return "activation";
    case ScrubPolicyKind::kRegionPeriodic:
      return "region";
    case ScrubPolicyKind::kHotRowPriority:
      return "hotrow";
  }
  return "unknown";
}

void require_valid(const ScrubPolicyConfig& config) {
  if (!(config.period_hours > 0.0) || !std::isfinite(config.period_hours)) {
    throw std::invalid_argument("ScrubPolicyConfig: period_hours must be positive");
  }
  if (!(config.region_period_hours > 0.0) ||
      !std::isfinite(config.region_period_hours)) {
    throw std::invalid_argument(
        "ScrubPolicyConfig: region_period_hours must be positive");
  }
  if (!(config.hot_period_hours > 0.0) || !std::isfinite(config.hot_period_hours)) {
    throw std::invalid_argument("ScrubPolicyConfig: hot_period_hours must be positive");
  }
  if (config.activation_budget == 0) {
    throw std::invalid_argument("ScrubPolicyConfig: activation_budget must be >= 1");
  }
  if (config.regions == 0) {
    throw std::invalid_argument("ScrubPolicyConfig: regions must be >= 1");
  }
}

std::vector<ScrubEvent> plan_scrubs(const ScrubPolicyConfig& config,
                                    const ScrubPlanContext& ctx) {
  require_valid(config);
  require_context(ctx);
  switch (config.kind) {
    case ScrubPolicyKind::kPeriodic:
      return plan_periodic(config, ctx);
    case ScrubPolicyKind::kActivationTriggered:
      return plan_activation_triggered(config, ctx);
    case ScrubPolicyKind::kRegionPeriodic:
      return plan_region_periodic(config, ctx);
    case ScrubPolicyKind::kHotRowPriority:
      return plan_hot_row_priority(config, ctx);
  }
  throw std::invalid_argument("plan_scrubs: unknown policy kind");
}

bool apply_policy_preset(std::string_view name, ScrubPolicyConfig& out) {
  ScrubPolicyConfig preset;
  if (name == "periodic") {
    preset.kind = ScrubPolicyKind::kPeriodic;
    preset.period_hours = 24.0;
  } else if (name == "activation") {
    // At the canonical workload (hot rows ~8000 activations/hour) this puts
    // hot bands on a ~6 h cadence while cold bands ride the 24 h backstop.
    preset.kind = ScrubPolicyKind::kActivationTriggered;
    preset.period_hours = 24.0;
    preset.activation_budget = 48000;
  } else if (name == "region") {
    preset.kind = ScrubPolicyKind::kRegionPeriodic;
    preset.period_hours = 24.0;
    preset.regions = 4;
    preset.region_period_hours = 6.0;
  } else if (name == "hotrow") {
    preset.kind = ScrubPolicyKind::kHotRowPriority;
    preset.period_hours = 24.0;
    preset.hot_period_hours = 6.0;
  } else {
    return false;
  }
  out = preset;
  return true;
}

std::span<const std::string_view> scrub_policy_preset_names() noexcept {
  static constexpr std::array<std::string_view, 4> kNames = {
      "periodic", "activation", "region", "hotrow"};
  return kNames;
}

}  // namespace pimecc::rel
