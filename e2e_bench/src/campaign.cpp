// e2e_bench -- campaign.cpp: the campaign workload.
//
// A closed-loop rotation of reliability campaigns called directly through
// their public entry points, each at full executor width (threads = 0):
// rel::run_scenario over every fault preset x scrub policy preset,
// rel::run_fleet_montecarlo, rel::simulate_lifetime, and
// arch::CrossbarFleet::scrub_all after one injected error per shard.  The
// executor's parallelism is used *within* one operation here, and the
// codec runs its scrub/repair read path.
//
// The op ring is generated from the benchmark seed (kRotations rotations
// of the four kinds, scenario presets shuffled).  Correctness gate: every
// op's result line must equal the line of the same ring slot executed
// serially (threads = 1) after the timed loop -- the engines promise
// bit-identical results at any lane count -- and every fleet scrub must
// repair exactly the errors it was given.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/fleet.hpp"
#include "reliability/fleet_reliability.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/scenario.hpp"
#include "reliability/scrub_policy.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace pimecc;

enum class OpKind : std::uint8_t { kScenario, kFleetMc, kLifetime, kFleetScrub };
constexpr std::size_t kKinds = 4;
constexpr std::array<const char*, kKinds> kKindNames = {"scenario", "fleet_mc",
                                                        "lifetime", "fleet_scrub"};
constexpr std::array<Layer, kKinds> kKindLayers = {Layer::kScenario, Layer::kFleetMc,
                                                   Layer::kLifetime, Layer::kFleetScrub};

constexpr std::size_t kRotations = 20;  // one per fault x policy preset pair

// Campaign sizes: each op is a few milliseconds at full width on a 4-core
// host.
constexpr std::size_t kScenarioN = 60;
constexpr std::size_t kScenarioTrials = 512;
constexpr double kScenarioHorizon = 240.0;
constexpr double kScenarioFit = 1e-3;
constexpr std::size_t kFleetMcN = 120;
constexpr std::size_t kFleetMcShards = 64;
constexpr std::size_t kFleetMcTrialsPerShard = 64;
constexpr std::size_t kLifetimeN = 60;
constexpr std::size_t kLifetimeTrials = 1024;
constexpr double kLifetimeFit = 3e3;
constexpr std::size_t kScrubN = 510;
constexpr std::size_t kScrubShards = 256;
constexpr std::size_t kM = 15;

struct CampaignOp {
  OpKind kind = OpKind::kScenario;
  std::string_view model;
  std::string_view policy;
  std::uint64_t seed = 0;
};

std::vector<CampaignOp> make_ring(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x43414D504149474Eull);
  std::vector<std::pair<std::string_view, std::string_view>> presets;
  for (const std::string_view model : rel::fault_preset_names()) {
    for (const std::string_view policy : rel::scrub_policy_preset_names()) {
      presets.emplace_back(model, policy);
    }
  }
  for (std::size_t i = presets.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(presets[i - 1], presets[rng.uniform_below(i)]);
  }
  std::vector<CampaignOp> ring;
  for (std::size_t r = 0; r < kRotations; ++r) {
    const auto& [model, policy] = presets[r % presets.size()];
    ring.push_back({OpKind::kScenario, model, policy, rng.next()});
    ring.push_back({OpKind::kFleetMc, {}, {}, rng.next()});
    ring.push_back({OpKind::kLifetime, {}, {}, rng.next()});
    ring.push_back({OpKind::kFleetScrub, {}, {}, rng.next()});
  }
  return ring;
}

arch::FleetParams scrub_fleet_params(std::size_t threads) {
  arch::FleetParams params;
  params.n = kScrubN;
  params.m = kM;
  params.shards = kScrubShards;
  params.threads = threads;
  return params;
}

/// The golden fleet image every scrub op starts from and returns to.
std::unique_ptr<arch::CrossbarFleet> make_fleet(std::uint64_t seed, std::size_t threads) {
  auto fleet = std::make_unique<arch::CrossbarFleet>(scrub_fleet_params(threads));
  util::Rng rng(seed ^ 0x464C454554ull);
  fleet->load_random(rng);
  return fleet;
}

/// Result of one op: its digest line plus the work counts.
struct OpOutcome {
  std::string line;
  std::string problem;  ///< empty when the op's own expectations hold
  std::uint64_t trials = 0;
  std::uint64_t blocks = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t errors_corrected = 0;
  std::uint64_t scrub_events = 0;
};

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), fmt, args...);
  return buffer;
}

using ull = unsigned long long;

OpOutcome execute(const CampaignOp& op, std::size_t threads, arch::CrossbarFleet& fleet,
                  RequestTrace* trace, int parent) {
  OpOutcome out;
  const auto open = [&](Layer layer) { return trace != nullptr ? trace->open(layer, parent) : -1; };
  const auto close = [&](int span) {
    if (trace != nullptr) trace->close(span);
  };
  util::Rng rng(op.seed);
  switch (op.kind) {
    case OpKind::kScenario: {
      rel::ScenarioConfig config;
      config.n = kScenarioN;
      config.m = kM;
      config.trials = kScenarioTrials;
      config.max_hours = kScenarioHorizon;
      config.threads = threads;
      config.workload = rel::canonical_workload();
      if (!rel::apply_fault_preset(op.model, kScenarioFit, config.faults) ||
          !rel::apply_policy_preset(op.policy, config.policy)) {
        out.problem = "unknown scenario preset";
        return out;
      }
      const int span = open(Layer::kScenario);
      const rel::ScenarioResult r = rel::run_scenario(config, rng);
      close(span);
      out.line = format(
          "scenario model=%.*s policy=%.*s trials=%zu failures=%zu scrubs=%llu "
          "blocks=%llu cells=%llu faults=%llu corrected=%llu stuck=%llu "
          "replaced=%llu ttf=%.17g",
          static_cast<int>(op.model.size()), op.model.data(),
          static_cast<int>(op.policy.size()), op.policy.data(), r.trials, r.failures,
          static_cast<ull>(r.scrub_events), static_cast<ull>(r.blocks_scrubbed),
          static_cast<ull>(r.cells_scrubbed), static_cast<ull>(r.faults_injected),
          static_cast<ull>(r.errors_corrected), static_cast<ull>(r.stuck_repairs),
          static_cast<ull>(r.cells_replaced), r.time_to_failure_hours.mean());
      out.trials = r.trials;
      out.faults_injected = r.faults_injected;
      out.errors_corrected = r.errors_corrected;
      out.scrub_events = r.scrub_events;
      break;
    }
    case OpKind::kFleetMc: {
      rel::FleetMonteCarloConfig config;
      config.n = kFleetMcN;
      config.m = kM;
      config.window_hours = 24.0;
      // About three flips per trial over data + check cells.
      const double blocks = static_cast<double>((kFleetMcN / kM) * (kFleetMcN / kM));
      const double population =
          static_cast<double>(kFleetMcN * kFleetMcN) + blocks * 2.0 * kM;
      config.fit_per_bit = 3.0 / population * 1e9 / config.window_hours;
      config.shards = kFleetMcShards;
      config.trials_per_shard = kFleetMcTrialsPerShard;
      config.threads = threads;
      const int span = open(Layer::kFleetMc);
      const rel::FleetMonteCarloResult r = rel::run_fleet_montecarlo(config, rng);
      close(span);
      const rel::MonteCarloResult& t = r.total;
      out.line = format(
          "fleet_mc trials=%zu with_errors=%zu failed=%zu flips=%llu blocks_failed=%llu "
          "corrected_data=%llu corrected_check=%llu uncorrectable=%llu miscorrected=%llu",
          t.trials, t.trials_with_errors, t.trials_failed,
          static_cast<ull>(t.flips_injected), static_cast<ull>(t.blocks_failed),
          static_cast<ull>(t.corrected_data), static_cast<ull>(t.corrected_check),
          static_cast<ull>(t.detected_uncorrectable), static_cast<ull>(t.miscorrected));
      out.trials = t.trials;
      out.faults_injected = t.flips_injected;
      out.errors_corrected = t.corrected_data + t.corrected_check;
      out.scrub_events = t.trials;  // one scrub window per trial
      break;
    }
    case OpKind::kLifetime: {
      rel::LifetimeConfig config;
      config.n = kLifetimeN;
      config.m = kM;
      config.crossbars = 4;
      config.fit_per_bit = kLifetimeFit;
      config.scrub_period_hours = 24.0;
      config.trials = kLifetimeTrials;
      config.max_hours = 24.0 * 100000;
      config.threads = threads;
      const int span = open(Layer::kLifetime);
      const rel::LifetimeResult r = rel::simulate_lifetime(config, rng);
      close(span);
      out.line = format("lifetime trials=%zu failures=%zu scrubs=%llu corrected=%llu ttf=%.17g",
                        r.trials, r.failures, static_cast<ull>(r.scrubs_performed),
                        static_cast<ull>(r.errors_corrected),
                        r.time_to_failure_hours.mean());
      out.trials = r.trials;
      out.errors_corrected = r.errors_corrected;
      out.scrub_events = r.scrubs_performed;
      break;
    }
    case OpKind::kFleetScrub: {
      const int inject = open(Layer::kFleetInject);
      for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
        const std::size_t r = rng.uniform_below(fleet.n());
        const std::size_t c = rng.uniform_below(fleet.n());
        fleet.inject_data_error(s, r, c);
      }
      close(inject);
      const int span = open(Layer::kFleetScrub);
      const arch::FleetScrubReport r = fleet.scrub_all();
      close(span);
      out.line = format(
          "fleet_scrub shards=%zu blocks=%llu clean=%llu corrected_data=%llu "
          "corrected_check=%llu uncorrectable=%llu",
          r.shards_checked, static_cast<ull>(r.blocks_checked), static_cast<ull>(r.clean),
          static_cast<ull>(r.corrected_data), static_cast<ull>(r.corrected_check),
          static_cast<ull>(r.uncorrectable));
      if (r.corrected_data != fleet.shard_count() || r.uncorrectable != 0 ||
          r.corrected_check != 0) {
        out.problem = "fleet scrub did not repair exactly one error per shard: " + out.line;
      }
      out.blocks = r.blocks_checked;
      out.faults_injected = fleet.shard_count();
      out.errors_corrected = r.corrected_data + r.corrected_check;
      out.scrub_events = 1;
      break;
    }
  }
  return out;
}

struct Setup {
  std::unique_ptr<arch::CrossbarFleet> fleet;
  std::vector<CampaignOp> ring;
};

struct KindTotals {
  std::uint64_t ops = 0;
  std::int64_t ns = 0;
  std::uint64_t trials = 0;
  std::uint64_t blocks = 0;
};

}  // namespace

RunResult run_campaign(const Options& options) {
  RunResult result;
  // Six scenario presets cost ~20 ms at full width, four times any other
  // op: 7.5% of the ring.  p99 sits near the top of that cluster, with ~25
  // samples beyond it in a 10 s run, and moved by up to 28% between
  // ten-run sets on a loaded host; p95 sits inside it.
  result.tail_percentile = 95.0;
  Setup setup;
  CpuRotation setup_cpus;  // each repetition on the next CPU
  const auto timed_set_up = [&] {
    setup_cpus.next();
    const std::int64_t start = now_ns();
    Setup fresh{make_fleet(options.seed, 0), make_ring(options.seed)};
    result.setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    setup_cpus.release();
    return fresh;
  };
  repeat_set_up(setup_reps_before(options), [&] {
    setup = Setup{};  // one set-up alive at a time, as in a real process
    setup = timed_set_up();
  });
  const std::vector<CampaignOp>& ring = setup.ring;

  // One timed loop; the traced run times it with spans and compares its
  // rate with a separate untraced loop.
  struct Loop {
    explicit Loop(std::size_t slots) : digests(slots) {}
    SlotDigests digests;
    double elapsed_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t failed = 0;
    std::array<KindTotals, kKinds> kinds{};
  };
  SpanRecorder recorder;
  RequestTrace trace;
  const auto run_loop = [&](double seconds, bool traced, bool timed) {
    Loop loop(ring.size());
    const double cpu0 = process_cpu_seconds();
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t k = 0; now_ns() < deadline; ++k) {
      const CampaignOp& op = ring[k % ring.size()];
      OpOutcome outcome;
      const std::int64_t t0 = now_ns();
      int root = -1;
      if (traced) {
        trace.reset(k);
        root = trace.open(Layer::kCampaignOp, -1);
      }
      try {
        outcome = execute(op, 0, *setup.fleet, traced ? &trace : nullptr, root);
      } catch (const std::exception& e) {
        outcome.problem = e.what();
      }
      const std::int64_t t1 = now_ns();
      if (traced) {
        trace.close(root);
        recorder.absorb(trace);
      }
      if (timed) {
        result.latency.add(static_cast<double>(t1 - t0) * 1e-6,
                           static_cast<double>(t1 - start) * 1e-9);
      }
      KindTotals& totals = loop.kinds[static_cast<std::size_t>(op.kind)];
      ++totals.ops;
      totals.ns += t1 - t0;
      totals.trials += outcome.trials;
      totals.blocks += outcome.blocks;
      if (!outcome.problem.empty() && loop.failed++ == 0) {
        result.fail("first failed campaign op: " + outcome.problem);
      }
      if (options.inject_mismatch && k == 0) outcome.line += " corrupted";
      loop.digests.add(fnv1a(outcome.line));
    }
    loop.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
    loop.cpu_s = process_cpu_seconds() - cpu0;
    return loop;
  };

  if (options.warmup_seconds > 0.0) (void)run_loop(options.warmup_seconds, false, false);
  const Loop untraced =
      run_loop(options.seconds, false, !options.trace);
  result.attempted = untraced.digests.ops();
  result.failed = untraced.failed;
  result.elapsed_s = untraced.elapsed_s;
  result.cpu_s = untraced.cpu_s;
  const Loop traced =
      options.trace ? run_loop(options.seconds, true, false) : Loop(ring.size());

  // Serial re-execution of every ring slot, on a serial fleet with the
  // same golden image.  The served fleet is released first, so
  // peak_rss_mib is the workload's, not the checker's.
  if (!setup.fleet->all_consistent()) {
    result.fail("the served fleet is not ECC-consistent after its scrubs");
  }
  setup.fleet.reset();
  const std::size_t distinct = ring.size();
  std::unique_ptr<arch::CrossbarFleet> serial_fleet = make_fleet(options.seed, 1);
  std::vector<std::uint64_t> expected(distinct);
  std::array<KindTotals, kKinds> serial{};
  OpOutcome pass;  // work counts of one pass over the ring
  for (std::size_t s = 0; s < distinct; ++s) {
    const std::int64_t t0 = now_ns();
    const OpOutcome outcome = execute(ring[s], 1, *serial_fleet, nullptr, -1);
    KindTotals& totals = serial[static_cast<std::size_t>(ring[s].kind)];
    ++totals.ops;
    totals.ns += now_ns() - t0;
    expected[s] = fnv1a(outcome.line);
    pass.faults_injected += outcome.faults_injected;
    pass.errors_corrected += outcome.errors_corrected;
    pass.scrub_events += outcome.scrub_events;
  }
  if (!serial_fleet->all_consistent()) {
    result.fail("the serial fleet is not ECC-consistent after its scrubs");
  }
  serial_fleet.reset();
  std::vector<std::string> slot_names;
  for (const CampaignOp& op : ring) {
    std::string name = kKindNames[static_cast<std::size_t>(op.kind)];
    if (op.kind == OpKind::kScenario) {
      name += ' ';
      name += op.model;
      name += '/';
      name += op.policy;
    }
    slot_names.push_back(std::move(name));
  }
  check_digests(untraced.digests, expected, "served", slot_names, result);
  repeat_set_up(options.setup_reps - setup_reps_before(options), [&] { (void)timed_set_up(); });
  if (!options.trace) return result;
  check_digests(traced.digests, expected, "traced", slot_names, result);
  result.failed += traced.failed;

  std::vector<Metric>& out = result.per_layer;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    const KindTotals& full = traced.kinds[kind];
    const LayerTotals& span = recorder.totals(kKindLayers[kind]);
    const std::string name = kKindNames[kind];
    const double full_per_op =
        full.ops > 0 ? static_cast<double>(full.ns) / static_cast<double>(full.ops) : 0.0;
    const double serial_per_op =
        serial[kind].ops > 0
            ? static_cast<double>(serial[kind].ns) / static_cast<double>(serial[kind].ops)
            : 0.0;
    const double speedup = full_per_op > 0.0 ? serial_per_op / full_per_op : 0.0;
    if (static_cast<OpKind>(kind) == OpKind::kFleetScrub) {
      out.push_back({"arch.fleet_scrub.blocks_per_s",
                     span.total_ns > 0 ? static_cast<double>(full.blocks) * 1e9 /
                                             static_cast<double>(span.total_ns)
                                       : 0.0,
                     "1/s"});
      out.push_back({"arch.fleet_scrub.parallel_speedup", speedup, "ratio"});
      continue;
    }
    out.push_back({"reliability." + name + ".trials_per_s",
                   span.total_ns > 0 ? static_cast<double>(full.trials) * 1e9 /
                                           static_cast<double>(span.total_ns)
                                     : 0.0,
                   "1/s"});
    out.push_back({"reliability." + name + ".parallel_speedup", speedup, "ratio"});
  }
  out.push_back({"reliability.faults_injected", static_cast<double>(pass.faults_injected),
                 "count"});
  out.push_back({"reliability.errors_corrected", static_cast<double>(pass.errors_corrected),
                 "count"});
  out.push_back({"reliability.scrub_events", static_cast<double>(pass.scrub_events), "count"});
  out.push_back({"trace.coverage_min", recorder.coverage_min(), "ratio"});
  const double untraced_rate =
      static_cast<double>(untraced.digests.ops()) / untraced.elapsed_s;
  const double traced_rate = static_cast<double>(traced.digests.ops()) / traced.elapsed_s;
  out.push_back({"trace.overhead", untraced_rate > 0.0 ? traced_rate / untraced_rate : 0.0,
                 "ratio"});
  result.notes.push_back("work counts are for one pass over the " +
                         std::to_string(distinct) + "-op ring");
  const std::string csv = options.out_dir + "/spans-" + options.workload + ".csv";
  result.notes.push_back(recorder.write_csv(csv) ? "spans written to " + csv
                                                 : "could not write " + csv);
  return result;
}

}  // namespace e2e
