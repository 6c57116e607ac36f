// Unit tests for the scenario-diversity subsystem: the activation-induced
// disturbance model, per-row activation accounting in the crossbars and the
// PIM machine, stuck-at cell semantics, the pluggable scrub policies'
// deterministic schedules, and the scenario lifetime engine (zero-rate
// exact cross-check against simulate_lifetime, iid statistical band, stuck
// re-flip semantics, and thread-count determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "arch/pim_machine.hpp"
#include "fault/disturbance.hpp"
#include "fault/models.hpp"
#include "oracle/reference_crossbar.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/scenario.hpp"
#include "reliability/scrub_policy.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace pimecc {
namespace {

// --------------------------------------------------------- DisturbanceModel

TEST(Disturbance, ValidatesConstruction) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-6;
  EXPECT_NO_THROW(fault::DisturbanceModel(8, 8, params));
  EXPECT_THROW(fault::DisturbanceModel(0, 8, params), std::invalid_argument);
  EXPECT_THROW(fault::DisturbanceModel(8, 0, params), std::invalid_argument);
  params.neighbor_radius = 0;
  EXPECT_THROW(fault::DisturbanceModel(8, 8, params), std::invalid_argument);
  params.neighbor_radius = 1;
  params.flip_probability_per_activation = -1e-6;
  EXPECT_THROW(fault::DisturbanceModel(8, 8, params), std::invalid_argument);
}

TEST(Disturbance, PressureSumsNeighborsAboveTheFloor) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-6;
  params.neighbor_radius = 2;
  params.activation_floor = 10;
  const fault::DisturbanceModel model(6, 6, params);
  const std::vector<double> acts = {100.0, 5.0, 40.0, 0.0, 25.0, 100.0};
  // Victim 2 sees rows {0, 1, 3, 4}: (100-10) + 0 + 0 + (25-10) = 105.
  EXPECT_DOUBLE_EQ(model.victim_pressure(acts, 2), 105.0);
  // Victim 0 sees rows {1, 2}: 0 + 30.  Its own 100 never self-disturbs.
  EXPECT_DOUBLE_EQ(model.victim_pressure(acts, 0), 30.0);
  EXPECT_THROW((void)model.victim_pressure(acts, 6), std::out_of_range);
  const std::vector<double> wrong(5, 0.0);
  EXPECT_THROW((void)model.victim_pressure(wrong, 0), std::invalid_argument);
}

TEST(Disturbance, ZeroPressureRowsConsumeNoRandomness) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-3;
  const fault::DisturbanceModel model(8, 8, params);
  util::Rng rng(3);
  const util::Rng::State before = rng.state();
  const std::vector<std::uint64_t> idle(8, 0);
  EXPECT_TRUE(model.sample(rng, idle).empty());
  EXPECT_EQ(rng.state(), before);
}

TEST(Disturbance, FlipsLandOnlyOnVictimRows) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 0.5;  // hot, for coverage
  params.neighbor_radius = 1;
  const fault::DisturbanceModel model(8, 16, params);
  std::vector<double> acts(8, 0.0);
  acts[4] = 50.0;  // single aggressor: victims are rows 3 and 5 only
  util::Rng rng(11);
  std::vector<fault::DataFlip> out;
  std::vector<std::size_t> scratch;
  for (int draw = 0; draw < 50; ++draw) {
    out.clear();
    model.sample(rng, acts, out, scratch);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const fault::DataFlip& f : out) {
      EXPECT_TRUE(f.r == 3 || f.r == 5) << "non-victim row " << f.r;
      EXPECT_LT(f.c, 16u);
      EXPECT_TRUE(seen.insert({f.r, f.c}).second) << "duplicate flip";
    }
  }
}

TEST(Disturbance, SampleIsDeterministicPerRngStream) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 1e-2;
  const fault::DisturbanceModel model(16, 16, params);
  std::vector<std::uint64_t> acts(16, 0);
  acts[2] = 100;
  acts[9] = 400;
  util::Rng a(77), b(77);
  for (int draw = 0; draw < 10; ++draw) {
    const auto fa = model.sample(a, acts);
    const auto fb = model.sample(b, acts);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].r, fb[i].r);
      EXPECT_EQ(fa[i].c, fb[i].c);
    }
  }
}

// The hazard is additive in aggressor activations, so one window of 2A
// activations and two windows of A each yield the same flip distribution
// (chunk invariance).  Compare empirical per-victim flip rates.
TEST(Disturbance, HazardIsChunkInvariantInDistribution) {
  fault::DisturbanceParams params;
  params.flip_probability_per_activation = 2e-3;
  const fault::DisturbanceModel model(4, 64, params);
  std::vector<double> full(4, 0.0), half(4, 0.0);
  full[1] = 800.0;  // p(victim cell) = 1 - exp(-1.6) = 0.798
  half[1] = 400.0;
  util::Rng rng_one(5), rng_two(6);
  const int kDraws = 400;
  std::size_t flips_one = 0, flips_two = 0;
  std::vector<fault::DataFlip> out;
  std::vector<std::size_t> scratch;
  for (int draw = 0; draw < kDraws; ++draw) {
    out.clear();
    model.sample(rng_one, full, out, scratch);
    flips_one += std::count_if(out.begin(), out.end(),
                               [](const fault::DataFlip& f) { return f.r == 0; });
    // Two half-windows: a cell flips in the window iff it flips an odd
    // number of times; with independent per-window Bernoulli hazards the
    // *expected flip count* is what adds, so compare total flips.
    out.clear();
    model.sample(rng_two, half, out, scratch);
    model.sample(rng_two, half, out, scratch);
    flips_two += std::count_if(out.begin(), out.end(),
                               [](const fault::DataFlip& f) { return f.r == 0; });
  }
  const double kCells = 64.0 * kDraws;
  const double rate_one = static_cast<double>(flips_one) / kCells;
  // Per half-window p_h = 1 - exp(-0.8); two windows flip 2*p_h cells in
  // expectation vs 1 - exp(-1.6) for the single window -- the *event*
  // counts differ (XOR-cancellation is the injector's job), but the
  // underlying hazard matches: 1-(1-p_h)^2 == 1-exp(-1.6).
  const double p_two_union =
      1.0 - std::pow(1.0 - (static_cast<double>(flips_two) / (2.0 * kCells)), 2.0);
  EXPECT_NEAR(rate_one, 1.0 - std::exp(-1.6), 0.02);
  EXPECT_NEAR(p_two_union, 1.0 - std::exp(-1.6), 0.02);
}

// ------------------------------------------------------- activation counters

TEST(ActivationCounters, RowOpsCountPerRowAndColumnOpsBroadcast) {
  xbar::Crossbar xb(8, 8);
  const util::BitVector row_image(8, true);
  xb.write_row(3, row_image);
  xb.write_row(3, row_image);
  (void)xb.read_row(5);
  EXPECT_EQ(xb.row_activations(3), 2u);
  EXPECT_EQ(xb.row_activations(5), 1u);
  EXPECT_EQ(xb.row_activations(0), 0u);
  // A column access drives every wordline: all rows tick once.
  xb.write_column(2, util::BitVector(8, false));
  EXPECT_EQ(xb.row_activations(3), 3u);
  EXPECT_EQ(xb.row_activations(0), 1u);
  EXPECT_THROW((void)xb.row_activations(8), std::out_of_range);
  const std::vector<std::uint64_t> snapshot = xb.row_activation_snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  EXPECT_EQ(snapshot[3], 3u);
  EXPECT_EQ(snapshot[0], 1u);
  xb.reset_row_activations();
  for (std::size_t r = 0; r < 8; ++r) EXPECT_EQ(xb.row_activations(r), 0u);
}

TEST(ActivationCounters, FastAndReferenceEnginesAgreeOnARandomProgram) {
  constexpr std::size_t kN = 16;
  xbar::Crossbar fast(kN, kN);
  xbar::ReferenceCrossbar ref(kN, kN);
  util::Rng rng(2025);
  for (int op = 0; op < 300; ++op) {
    switch (rng.uniform_below(6)) {
      case 0: {
        const std::size_t r = rng.uniform_below(kN);
        util::BitVector v(kN);
        for (std::size_t i = 0; i < kN; ++i) v.set(i, rng.bernoulli(0.5));
        fast.write_row(r, v);
        ref.write_row(r, v);
        break;
      }
      case 1: {
        const std::size_t c = rng.uniform_below(kN);
        util::BitVector v(kN);
        for (std::size_t i = 0; i < kN; ++i) v.set(i, rng.bernoulli(0.5));
        fast.write_column(c, v);
        ref.write_column(c, v);
        break;
      }
      case 2: {
        const std::size_t r = rng.uniform_below(kN);
        EXPECT_TRUE(fast.read_row(r) == ref.read_row(r));
        break;
      }
      case 3: {
        const std::size_t line = rng.uniform_below(kN);
        const std::size_t lines[1] = {line};
        const auto o = rng.bernoulli(0.5) ? xbar::Orientation::kRow
                                          : xbar::Orientation::kColumn;
        fast.magic_init(o, lines);
        ref.magic_init(o, lines);
        break;
      }
      case 4: {
        std::size_t in[2] = {rng.uniform_below(kN), rng.uniform_below(kN)};
        std::size_t out_line = rng.uniform_below(kN);
        while (out_line == in[0] || out_line == in[1]) {
          out_line = rng.uniform_below(kN);
        }
        if (in[0] == in[1]) in[1] = (in[1] + 1) % kN;
        const auto o = rng.bernoulli(0.5) ? xbar::Orientation::kRow
                                          : xbar::Orientation::kColumn;
        const std::size_t outs[1] = {out_line};
        fast.magic_init(o, outs);
        ref.magic_init(o, outs);
        (void)fast.magic_nor(o, in, out_line);
        (void)ref.magic_nor(o, in, out_line);
        break;
      }
      default: {
        const std::size_t r = rng.uniform_below(kN);
        const std::size_t c = rng.uniform_below(kN);
        const bool v = rng.bernoulli(0.5);
        fast.write_bit(r, c, v);
        ref.write_bit(r, c, v);
        break;
      }
    }
  }
  EXPECT_EQ(fast.row_activation_snapshot(), ref.row_activation_snapshot());
  for (std::size_t r = 0; r < kN; ++r) {
    EXPECT_EQ(fast.row_activations(r), ref.row_activations(r)) << "row " << r;
  }
}

TEST(ActivationCounters, PimMachineExposesMemActivationAccounting) {
  arch::ArchParams params;
  params.n = 30;
  params.m = 15;
  params.validate();
  arch::PimMachine machine(params);
  util::Rng rng(4);
  machine.load(util::random_bit_matrix(30, 30, rng));
  machine.reset_mem_row_activations();
  const std::uint64_t before = machine.mem_row_activations(7);
  EXPECT_EQ(before, 0u);
  util::BitVector row(30);
  for (std::size_t i = 0; i < 30; ++i) row.set(i, rng.bernoulli(0.5));
  machine.write_row_protected(7, row);
  EXPECT_GT(machine.mem_row_activations(7), 0u);
  const std::vector<std::uint64_t> snapshot = machine.mem_row_activation_snapshot();
  ASSERT_EQ(snapshot.size(), 30u);
  EXPECT_EQ(snapshot[7], machine.mem_row_activations(7));
  machine.reset_mem_row_activations();
  for (std::size_t r = 0; r < 30; ++r) {
    EXPECT_EQ(machine.mem_row_activations(r), 0u);
  }
}

// ----------------------------------------------------------------- StuckAt

TEST(StuckAt, MarkRepairReplaceLifecycle) {
  EXPECT_THROW(fault::StuckAtSet(0), std::invalid_argument);
  fault::StuckAtSet stuck(3);
  EXPECT_TRUE(stuck.mark(42));
  EXPECT_FALSE(stuck.mark(42));  // already latched: no state change
  EXPECT_TRUE(stuck.is_stuck(42));
  EXPECT_FALSE(stuck.is_stuck(7));
  EXPECT_THROW((void)stuck.on_repair(7), std::logic_error);
  EXPECT_FALSE(stuck.on_repair(42));  // repair 1 of 3: still stuck
  EXPECT_FALSE(stuck.on_repair(42));  // repair 2 of 3
  EXPECT_EQ(stuck.replaced_count(), 0u);
  EXPECT_TRUE(stuck.on_repair(42));   // repair 3: remapped to a spare
  EXPECT_FALSE(stuck.is_stuck(42));
  EXPECT_EQ(stuck.stuck_count(), 0u);
  EXPECT_EQ(stuck.replaced_count(), 1u);
  // A replaced cell can latch again (the spare is not immortal).
  EXPECT_TRUE(stuck.mark(42));
  stuck.clear();
  EXPECT_EQ(stuck.stuck_count(), 0u);
}

// ---------------------------------------------------------- scrub schedules

rel::ScrubPlanContext make_context(std::span<const double> rates,
                                   double horizon) {
  rel::ScrubPlanContext ctx;
  ctx.n = 60;
  ctx.m = 15;
  ctx.horizon_hours = horizon;
  ctx.row_activation_rates = rates;
  return ctx;
}

bool covers(const rel::ScrubEvent& event, std::size_t band) {
  return event.full() || std::binary_search(event.bands.begin(),
                                            event.bands.end(), band);
}

TEST(ScrubSchedule, PeriodicEmitsOneScrubPerStartedWindow) {
  rel::ScrubPolicyConfig config;  // periodic, 24 h
  EXPECT_EQ(config.kind, rel::ScrubPolicyKind::kPeriodic);
  const std::vector<double> rates(60, 0.0);
  const auto plan = rel::plan_scrubs(config, make_context(rates, 240.0));
  ASSERT_EQ(plan.size(), 10u);  // windows start at 0, 24, ..., 216
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan[i].hours, 24.0 * static_cast<double>(i + 1));
    EXPECT_TRUE(plan[i].full());
  }
  // A horizon inside a window still gets that window's scrub: the final
  // event may overhang the horizon (one-scrub-per-started-window).
  const auto overhang = rel::plan_scrubs(config, make_context(rates, 250.0));
  ASSERT_EQ(overhang.size(), 11u);
  EXPECT_DOUBLE_EQ(overhang.back().hours, 264.0);
}

TEST(ScrubSchedule, RegionPolicyRoundRobinsBandsAtTheRegionCadence) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("region", config));
  const std::vector<double> rates(60, 0.0);
  const auto plan = rel::plan_scrubs(config, make_context(rates, 48.0));
  ASSERT_EQ(plan.size(), 8u);  // every 6 h, one band per event
  std::size_t per_band[4] = {0, 0, 0, 0};
  double previous = 0.0;
  for (const rel::ScrubEvent& event : plan) {
    EXPECT_GT(event.hours, previous);
    previous = event.hours;
    ASSERT_EQ(event.bands.size(), 1u);
    ++per_band[event.bands[0]];
  }
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(per_band[b], 2u) << "band " << b;  // two full cycles in 48 h
  }
}

TEST(ScrubSchedule, ActivationPolicyScrubsHotBandsMoreOftenWithABackstop) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("activation", config));
  const std::vector<double> rates =
      rel::row_activation_rates(rel::canonical_workload(), 60);
  const auto plan = rel::plan_scrubs(config, make_context(rates, 48.0));
  std::size_t hot = 0, cold = 0;
  for (const rel::ScrubEvent& event : plan) {
    if (covers(event, 0)) ++hot;   // band 0 holds the hot rows: 6 h cadence
    if (covers(event, 3)) ++cold;  // cold band rides the 24 h backstop
  }
  EXPECT_EQ(hot, 8u);
  EXPECT_EQ(cold, 2u);
  // With no activations at all, every band falls back to the backstop and
  // the coalesced schedule degenerates to the periodic baseline.
  const std::vector<double> idle(60, 0.0);
  const auto fallback = rel::plan_scrubs(config, make_context(idle, 48.0));
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_TRUE(fallback[0].full());
  EXPECT_TRUE(fallback[1].full());
}

TEST(ScrubSchedule, HotRowPolicyAddsHotScrubsAndFullsAbsorbCoincidentOnes) {
  rel::ScrubPolicyConfig config;
  ASSERT_TRUE(rel::apply_policy_preset("hotrow", config));
  const std::vector<double> rates =
      rel::row_activation_rates(rel::canonical_workload(), 60);
  const auto plan = rel::plan_scrubs(config, make_context(rates, 48.0));
  ASSERT_EQ(plan.size(), 8u);  // 6 h grid; fulls at 24 and 48 absorb hot events
  for (const rel::ScrubEvent& event : plan) {
    const bool on_full_grid = std::fmod(event.hours, 24.0) == 0.0;
    if (on_full_grid) {
      EXPECT_TRUE(event.full()) << "t=" << event.hours;
    } else {
      ASSERT_EQ(event.bands.size(), 1u) << "t=" << event.hours;
      EXPECT_EQ(event.bands[0], 0u);  // only band 0 contains hot rows
    }
  }
  // Uniform workload: no row is hotter than the floor, so the policy
  // degenerates to the periodic baseline.
  const std::vector<double> uniform(60, 1000.0);
  const auto flat = rel::plan_scrubs(config, make_context(uniform, 48.0));
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_TRUE(flat[0].full());
}

TEST(ScrubSchedule, ValidatesConfigurationAndContext) {
  rel::ScrubPolicyConfig config;
  config.period_hours = 0.0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.period_hours = 24.0;
  config.activation_budget = 0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.activation_budget = 1;
  config.regions = 0;
  EXPECT_THROW(rel::require_valid(config), std::invalid_argument);
  config.regions = 4;
  EXPECT_NO_THROW(rel::require_valid(config));

  const rel::ScrubPolicyConfig periodic;
  const std::vector<double> rates(60, 0.0);
  rel::ScrubPlanContext bad = make_context(rates, 240.0);
  bad.m = 7;  // does not divide n
  EXPECT_THROW((void)rel::plan_scrubs(periodic, bad), std::invalid_argument);
  bad = make_context(rates, -1.0);
  EXPECT_THROW((void)rel::plan_scrubs(periodic, bad), std::invalid_argument);
  const std::vector<double> short_rates(59, 0.0);
  EXPECT_THROW((void)rel::plan_scrubs(periodic, make_context(short_rates, 240.0)),
               std::invalid_argument);
  std::vector<double> negative(60, 0.0);
  negative[3] = -1.0;
  EXPECT_THROW((void)rel::plan_scrubs(periodic, make_context(negative, 240.0)),
               std::invalid_argument);
}

TEST(ScrubSchedule, PresetNamesRoundTrip) {
  for (const std::string_view name : rel::scrub_policy_preset_names()) {
    rel::ScrubPolicyConfig config;
    EXPECT_TRUE(rel::apply_policy_preset(name, config)) << name;
    EXPECT_EQ(rel::to_string(config.kind), name);
  }
  rel::ScrubPolicyConfig config;
  EXPECT_FALSE(rel::apply_policy_preset("nonsense", config));
  for (const std::string_view name : rel::fault_preset_names()) {
    rel::FaultMix mix;
    EXPECT_TRUE(rel::apply_fault_preset(name, 1000.0, mix)) << name;
  }
  rel::FaultMix mix;
  EXPECT_FALSE(rel::apply_fault_preset("nonsense", 1000.0, mix));
}

// --------------------------------------------------------- scenario engine

void expect_identical(const rel::ScenarioResult& a, const rel::ScenarioResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.scrub_events, b.scrub_events);
  EXPECT_EQ(a.blocks_scrubbed, b.blocks_scrubbed);
  EXPECT_EQ(a.cells_scrubbed, b.cells_scrubbed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.errors_corrected, b.errors_corrected);
  EXPECT_EQ(a.stuck_repairs, b.stuck_repairs);
  EXPECT_EQ(a.cells_replaced, b.cells_replaced);
  EXPECT_EQ(a.time_to_failure_hours.count(), b.time_to_failure_hours.count());
  EXPECT_EQ(a.time_to_failure_hours.mean(), b.time_to_failure_hours.mean());
  EXPECT_EQ(a.time_to_failure_hours.min(), b.time_to_failure_hours.min());
  EXPECT_EQ(a.time_to_failure_hours.max(), b.time_to_failure_hours.max());
}

TEST(Scenario, ValidatesConfigurationBeforeConsumingRandomness) {
  rel::ScenarioConfig config;
  config.n = 60;
  config.m = 7;  // does not divide n
  util::Rng rng(1);
  const util::Rng::State before = rng.state();
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
  EXPECT_EQ(rng.state(), before);
  config.m = 15;
  config.trials = 0;
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
  config.trials = 1;
  config.faults.stuck_probability = 1.5;
  EXPECT_THROW((void)rel::run_scenario(config, rng), std::invalid_argument);
}

TEST(Scenario, DrawsExactlyOneValueFromTheCallerRng) {
  rel::ScenarioConfig config;
  config.trials = 3;
  config.max_hours = 48.0;
  config.faults.fit_per_bit = 1e4;
  util::Rng rng(99), twin(99);
  (void)rel::run_scenario(config, rng);
  (void)twin.next();
  EXPECT_EQ(rng.state(), twin.state());
}

// At a zero fault rate the scenario engine and the lifetime engine must
// agree *exactly*: same scrub count (one per started window), zero
// failures, zero corrections -- the accounting cross-check that pins the
// policy's emission rule to the reference walker's.
TEST(Scenario, ZeroRateScrubAccountingMatchesLifetimeEngineExactly) {
  rel::ScenarioConfig sc;
  sc.trials = 7;
  sc.max_hours = 240.0;
  sc.policy.period_hours = 24.0;
  util::Rng rng_s(123);
  const rel::ScenarioResult scenario = rel::run_scenario(sc, rng_s);

  rel::LifetimeConfig lf;
  lf.crossbars = 1;
  lf.fit_per_bit = 0.0;
  lf.scrub_period_hours = 24.0;
  lf.trials = 7;
  lf.max_hours = 240.0;
  util::Rng rng_l(123);
  const rel::LifetimeResult lifetime = rel::simulate_lifetime(lf, rng_l);

  EXPECT_EQ(scenario.failures, 0u);
  EXPECT_EQ(lifetime.failures, 0u);
  EXPECT_EQ(scenario.scrub_events, lifetime.scrubs_performed);
  EXPECT_EQ(scenario.scrub_events, 7u * 10u);
  EXPECT_EQ(scenario.errors_corrected, 0u);
  EXPECT_EQ(scenario.faults_injected, 0u);
  // Full scrubs over a 60x60/m=15 array: 16 blocks of 225 data + 30 check
  // cells per event.
  EXPECT_EQ(scenario.blocks_scrubbed, scenario.scrub_events * 16u);
  EXPECT_EQ(scenario.cells_scrubbed, scenario.scrub_events * 16u * 255u);
  // Zero failures: the MTTF convention is total exposure.
  EXPECT_DOUBLE_EQ(scenario.empirical_mttf_hours(240.0), 240.0 * 7.0);
}

// With the iid mechanism alone and the periodic policy the scenario engine
// samples the same physical process as the lifetime engine (it places hits
// on distinct cells where the lifetime engine draws per-block counts, so
// the pin is statistical, not bit-exact).
TEST(Scenario, IidFailureRateMatchesLifetimeEngineStatistically) {
  constexpr std::size_t kTrials = 300;
  constexpr double kHorizon = 240.0;
  rel::ScenarioConfig sc;
  sc.trials = kTrials;
  sc.max_hours = kHorizon;
  sc.faults.fit_per_bit = 1.5e4;
  util::Rng rng_s(0xA5E11);
  const rel::ScenarioResult scenario = rel::run_scenario(sc, rng_s);

  rel::LifetimeConfig lf;
  lf.crossbars = 1;
  lf.fit_per_bit = 1.5e4;
  lf.trials = kTrials;
  lf.max_hours = kHorizon;
  util::Rng rng_l(0xB0B);
  const rel::LifetimeResult lifetime = rel::simulate_lifetime(lf, rng_l);

  ASSERT_GT(scenario.failures, 0u);
  ASSERT_GT(lifetime.failures, 0u);
  const double ps = static_cast<double>(scenario.failures) / kTrials;
  const double pl = static_cast<double>(lifetime.failures) / kTrials;
  const double sigma =
      std::sqrt((ps * (1.0 - ps) + pl * (1.0 - pl)) / kTrials);
  EXPECT_NEAR(ps, pl, 5.0 * sigma + 1e-9);
  const double mttf_ratio = scenario.empirical_mttf_hours(kHorizon) /
                            lifetime.empirical_mttf_hours(kHorizon);
  EXPECT_GT(mttf_ratio, 0.5);
  EXPECT_LT(mttf_ratio, 2.0);
}

// Stuck-at semantics end to end: cells that re-flip after every repair are
// strictly worse than cells replaced on first repair, and the repair
// accounting obeys the replacement threshold.
TEST(Scenario, StuckCellsDegradeLifetimeUntilReplaced) {
  rel::ScenarioConfig base;
  base.trials = 120;
  base.max_hours = 480.0;
  base.faults.fit_per_bit = 2e4;
  base.faults.stuck_probability = 1.0;  // every fault latches

  rel::ScenarioConfig sticky = base;
  sticky.faults.replace_after_repairs = 64;  // effectively never replaced
  util::Rng rng_a(31337);
  const rel::ScenarioResult never_replaced = rel::run_scenario(sticky, rng_a);

  rel::ScenarioConfig replace_fast = base;
  replace_fast.faults.replace_after_repairs = 1;  // spare on first repair
  util::Rng rng_b(31337);
  const rel::ScenarioResult replaced = rel::run_scenario(replace_fast, rng_b);

  EXPECT_GT(never_replaced.stuck_repairs, 0u);
  EXPECT_GT(never_replaced.failures, replaced.failures);
  // Replace-after-1 remaps on every stuck repair: the two counters agree
  // exactly, and the >= replace_after * replacements invariant is tight.
  EXPECT_EQ(replaced.stuck_repairs, replaced.cells_replaced);
  EXPECT_GT(replaced.cells_replaced, 0u);
  EXPECT_GE(never_replaced.stuck_repairs,
            never_replaced.cells_replaced * 64u);
}

// Tiny mixed-mechanism campaign under the smoke label: every CI invocation
// exercises disturbance + bursts + stuck-at + an adaptive policy end to
// end, and the campaign is a pure function of the seed.
TEST(ScenarioSmoke, MixedCampaignIsDeterministicPerSeed) {
  rel::ScenarioConfig config;
  config.trials = 12;
  config.max_hours = 120.0;
  ASSERT_TRUE(rel::apply_fault_preset("mixed", 1.5e4, config.faults));
  ASSERT_TRUE(rel::apply_policy_preset("hotrow", config.policy));
  util::Rng rng_a(7), rng_b(7), rng_c(8);
  const rel::ScenarioResult a = rel::run_scenario(config, rng_a);
  const rel::ScenarioResult b = rel::run_scenario(config, rng_b);
  expect_identical(a, b);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_GT(a.scrub_events, 0u);
  // A different seed perturbs the campaign (overwhelmingly likely at this
  // fault rate).
  const rel::ScenarioResult c = rel::run_scenario(config, rng_c);
  EXPECT_NE(a.faults_injected, c.faults_injected);
}

// The substream-determinism contract: bit-identical results at any thread
// count.  Runs under the concurrency label (ThreadSanitizer target set).
TEST(ScenarioConcurrency, ResultsAreBitIdenticalAtAnyThreadCount) {
  rel::ScenarioConfig config;
  config.trials = 64;
  config.max_hours = 240.0;
  ASSERT_TRUE(rel::apply_fault_preset("mixed", 1.5e4, config.faults));
  ASSERT_TRUE(rel::apply_policy_preset("activation", config.policy));

  config.threads = 1;
  util::Rng rng_serial(42);
  const rel::ScenarioResult serial = rel::run_scenario(config, rng_serial);
  ASSERT_GT(serial.failures, 0u);

  config.threads = 3;
  util::Rng rng_three(42);
  expect_identical(serial, rel::run_scenario(config, rng_three));

  config.threads = 0;  // full shared-executor width
  util::Rng rng_wide(42);
  expect_identical(serial, rel::run_scenario(config, rng_wide));
}

}  // namespace
}  // namespace pimecc
