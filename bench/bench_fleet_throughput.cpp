// Fleet engine harness: measures the sharded multi-crossbar fleet on the
// work-stealing executor and emits machine-readable BENCH_fleet.json.
//
//   1. montecarlo: trials/second of run_fleet_montecarlo across a
//      shard-count sweep (full executor width) and a worker-count sweep at
//      a fixed fleet size -- the scaling surface of the tentpole.
//   2. scrub: blocks/second of CrossbarFleet::scrub_all across the same
//      shard and worker sweeps (each shard's contiguous image streaming
//      through the SIMD band walks).
//   3. mttf_grid: the paper-scale Figure 6 surface -- lifetime campaigns
//      over banks of up to ~1 GB (8259 shards of 1020 x 1020 at m = 15)
//      across an SER sweep, empirical MTTF next to the Section V-A closed
//      form in every cell.
//
// Every run first executes the cross-check gate and the process exit
// status reflects it:
//   - fleet Monte Carlo totals must be BIT-IDENTICAL, counter for counter,
//     to the flat single-crossbar run_montecarlo on a shared seed at EVERY
//     tested shard count and EVERY tested worker count (the shared
//     sparse-trial substream contract), with identical per-shard slots
//     across worker counts and an identically advanced caller stream;
//   - fleet scrub_all must agree, shard for shard and in aggregate, with a
//     serial loop over independent single-crossbar ArrayCode engines on
//     the same images and injected faults, at serial and full width.
//
// Usage: bench_fleet_throughput [--smoke] [--out=PATH]
//   --smoke    fast CI configuration (small fleets, short measurements)
//   --out=PATH where to write the JSON (default: BENCH_fleet.json)
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "arch/fleet.hpp"
#include "core/array_code.hpp"
#include "harness.hpp"
#include "reliability/fleet_reliability.hpp"
#include "reliability/montecarlo.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace pimecc;
  using bench::fmt;

  const bench::Options options =
      bench::parse_options(argc, argv, "BENCH_fleet.json");
  const bool smoke = options.smoke;
  bench::Gates gates;
  const double min_seconds = smoke ? 0.05 : 1.0;
  const std::size_t workers = util::Executor::shared().worker_count();

  // Per-shard geometry: the paper's n = 510 case in full, a tiny shard in
  // smoke; mean ~3 flips per trial (the rare-event regime).
  const std::size_t shard_n = smoke ? 60 : 510;
  const std::size_t shard_m = 15;
  const std::vector<std::size_t> shard_sweep =
      smoke ? std::vector<std::size_t>{4, 16}
            : std::vector<std::size_t>{16, 64, 256};
  const std::vector<std::size_t> worker_sweep =
      smoke ? std::vector<std::size_t>{1, 2, 0}
            : std::vector<std::size_t>{1, 2, 4, 0};
  const std::size_t fixed_shards = shard_sweep[shard_sweep.size() / 2];

  auto fleet_mc_config = [&](std::size_t shards, std::size_t trials_per_shard,
                             std::size_t threads) {
    rel::FleetMonteCarloConfig config;
    config.n = shard_n;
    config.m = shard_m;
    config.window_hours = 24.0;
    const std::size_t blocks = (shard_n / shard_m) * (shard_n / shard_m);
    config.fit_per_bit = bench::fit_for_mean_flips(
        3.0, shard_n * shard_n + blocks * 2 * shard_m, 24.0);
    config.shards = shards;
    config.trials_per_shard = trials_per_shard;
    config.threads = threads;
    return config;
  };

  // ---------------------------------------------- cross-check gate: fleet MC
  // Bit-identity against the flat engine at every shard count and worker
  // count the sweeps below will time; shard slots invariant across workers.
  {
    const std::size_t gate_trials_per_shard = smoke ? 3 : 5;
    for (const std::size_t shards : shard_sweep) {
      std::vector<rel::FleetShardOutcome> pinned_slots;
      for (const std::size_t threads : worker_sweep) {
        util::Rng fleet_rng(0xF1EE7ull + shards);
        const rel::FleetMonteCarloResult fleet = rel::run_fleet_montecarlo(
            fleet_mc_config(shards, gate_trials_per_shard, threads),
            fleet_rng);
        util::Rng flat_rng(0xF1EE7ull + shards);
        const rel::MonteCarloResult flat = rel::run_montecarlo(
            fleet_mc_config(shards, gate_trials_per_shard, threads).flat(),
            flat_rng);
        const std::string at = " at shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
        gates.check(fleet.total == flat && fleet_rng.next() == flat_rng.next(),
                    "fleet-vs-flat" + at);
        if (pinned_slots.empty()) {
          pinned_slots = fleet.shards;
        } else {
          gates.check(fleet.shards == pinned_slots, "shard-slot invariance" + at);
        }
      }
    }
  }

  // -------------------------------------------- cross-check gate: fleet scrub
  // Fleet bulk scrub vs a serial loop of independent single-crossbar
  // engines on identical images and faults, serial and full width.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    arch::FleetParams params;
    params.n = shard_n;
    params.m = shard_m;
    params.shards = smoke ? 8 : 32;
    params.threads = threads;
    arch::CrossbarFleet fleet(params);
    util::Rng rng(0x5C4Bull);
    fleet.load_random(rng);
    std::vector<util::BitMatrix> mirror_data;
    std::vector<ecc::ArrayCode> mirror_codes;
    for (std::size_t s = 0; s < params.shards; ++s) {
      mirror_data.push_back(fleet.data(s));
      mirror_codes.emplace_back(shard_n, shard_m);
      mirror_codes.back().encode_all(mirror_data.back());
    }
    const auto flips =
        fleet.inject_random_errors(rng, 4 * params.shards);
    for (const arch::FleetAddress& f : flips) {
      mirror_data[f.shard].flip(f.row, f.col);
    }
    const arch::FleetScrubReport report = fleet.scrub_all();
    arch::FleetScrubReport expect;
    for (std::size_t s = 0; s < params.shards; ++s) {
      const ecc::ScrubReport r = mirror_codes[s].scrub(mirror_data[s]);
      ++expect.shards_checked;
      expect.blocks_checked += r.blocks_checked;
      expect.clean += r.clean;
      expect.corrected_data += r.corrected_data;
      expect.corrected_check += r.corrected_check;
      expect.uncorrectable += r.uncorrectable;
    }
    bool images_match = true;
    for (std::size_t s = 0; s < params.shards; ++s) {
      if (!(fleet.data(s) == mirror_data[s])) images_match = false;
    }
    gates.check(report == expect && images_match,
                "fleet-vs-single scrub at threads=" + std::to_string(threads));
  }

  bench::Json json("pimecc-bench-fleet/1", options);
  json.object("executor")
      .field("workers", workers)
      .field("parallelism", workers + 1)
      .end();
  json.field("shard_n", shard_n).field("shard_m", shard_m);

  // -------------------------------------------------- montecarlo throughput
  const std::size_t bench_trials_per_shard = smoke ? 3 : 10;
  auto mc_rate = [&](std::size_t shards, std::size_t threads,
                     std::uint64_t stamp) {
    return bench::measure_rate(min_seconds, [&] {
      util::Rng rng(stamp++);
      (void)rel::run_fleet_montecarlo(
          fleet_mc_config(shards, bench_trials_per_shard, threads), rng);
      return shards * bench_trials_per_shard;
    });
  };
  // ------------------------------------------------------- scrub throughput
  auto scrub_rate = [&](std::size_t shards, std::size_t threads) {
    arch::FleetParams params;
    params.n = shard_n;
    params.m = shard_m;
    params.shards = shards;
    params.threads = threads;
    arch::CrossbarFleet fleet(params);
    util::Rng rng(0xB10C'5ull);
    fleet.load_random(rng);
    return bench::measure_rate(min_seconds, [&] {
      (void)fleet.scrub_all();
      return shards * (shard_n / shard_m) * (shard_n / shard_m);
    });
  };
  // One sweep point: {"shards", "threads", unit}, threads 0 = full width.
  auto point = [&](std::size_t shards, std::size_t threads, const char* unit,
                   double per_sec) {
    std::cout << unit << " shards=" << shards << " threads=" << threads
              << ": " << fmt(per_sec) << "\n";
    json.object()
        .field("shards", shards)
        .field("threads", threads)
        .field(unit, per_sec)
        .end();
  };
  json.array("montecarlo_shard_sweep");
  for (const std::size_t shards : shard_sweep) {
    point(shards, 0, "trials_per_sec", mc_rate(shards, 0, 1));
  }
  json.end().array("montecarlo_worker_sweep");
  for (const std::size_t threads : worker_sweep) {
    point(fixed_shards, threads, "trials_per_sec",
          mc_rate(fixed_shards, threads, 100));
  }
  json.end().array("scrub_shard_sweep");
  for (const std::size_t shards : shard_sweep) {
    point(shards, 0, "blocks_per_sec", scrub_rate(shards, 0));
  }
  json.end().array("scrub_worker_sweep");
  for (const std::size_t threads : worker_sweep) {
    point(fixed_shards, threads, "blocks_per_sec",
          scrub_rate(fixed_shards, threads));
  }
  json.end();

  // ------------------------------------------------- Figure 6 MTTF surface
  // Full mode: banks up to 8259 shards of 1020 x 1020 at m = 15 -- the
  // paper's 1 GB memory -- daily scrubbing, a 20-year horizon, and an SER
  // sweep high enough that failures are observable within the horizon.
  rel::FleetMttfGridConfig grid_config;
  grid_config.n = smoke ? 60 : 1020;
  grid_config.m = 15;
  grid_config.scrub_period_hours = 24.0;
  grid_config.max_hours = 24.0 * 365 * (smoke ? 1 : 20);
  grid_config.trials = smoke ? 4 : 20;
  grid_config.threads = 0;
  grid_config.fit_points =
      smoke ? std::vector<double>{1e5, 1e6}
            : std::vector<double>{0.5, 1.0, 5.0};
  grid_config.shard_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{64, 1024, 8259};
  util::Rng grid_rng(0xF16'6ull);
  json.object("mttf_grid")
      .field("n", grid_config.n)
      .field("m", grid_config.m)
      .field("scrub_period_hours", grid_config.scrub_period_hours)
      .field("horizon_hours", grid_config.max_hours)
      .field("trials_per_cell", grid_config.trials)
      .array("cells");
  for (const rel::FleetMttfPoint& cell :
       rel::run_fleet_mttf_grid(grid_config, grid_rng)) {
    std::cout << "mttf fit=" << fmt(cell.fit_per_bit)
              << " shards=" << cell.shards << ": empirical "
              << fmt(cell.empirical_mttf_hours) << " h (" << cell.failures
              << "/" << cell.trials << " failed), analytic "
              << fmt(cell.analytic_mttf_hours) << " h\n";
    json.object()
        .field("fit_per_bit", cell.fit_per_bit)
        .field("shards", cell.shards)
        .field("failures", cell.failures)
        .field("trials", cell.trials)
        .field("empirical_mttf_hours", cell.empirical_mttf_hours)
        .field("analytic_mttf_hours", cell.analytic_mttf_hours)
        .field("scrub_windows", cell.scrub_windows)
        .end();
  }
  return json.finish(gates, "cross_checks_ok");
}
