// e2e_bench -- the end-to-end benchmark program.
//
//   e2e_bench --workload run_n1020|control_mix|campaign --seed N --seconds S
//             --trace 0|1 [--warmup S] [--setup-reps K] [--git-describe TEXT]
//             [--out-dir DIR] [--inject-mismatch]
//
// Prints the host/provenance block, every metric by name with its unit,
// the notes of the correctness gate, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
// correctness check fails, 2 on a usage error (then with no JSON line).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

using e2e::Metric;

// Every per-layer metric, in output order; a workload that does not
// exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"serve.parse_us", "us"},
    {"serve.format_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.take_wait_us", "us"},
    {"serve.execute_us.map", "us"},
    {"serve.execute_us.mttf", "us"},
    {"serve.execute_us.sweep", "us"},
    {"serve.execute_us.run", "us"},
    {"serve.registry_us", "us"},
    {"serve.registry.hit_ratio", "ratio"},
    {"serve.registry.machine_reuse_ratio", "ratio"},
    {"util.executor.batch_efficiency", "ratio"},
    {"util.rng_us", "us"},
    {"arch.load_encode_us", "us"},
    {"arch.check_before_use_us", "us"},
    {"arch.check_corrections", "count"},
    {"arch.protected_write_us", "us"},
    {"arch.protected_init_us", "us"},
    {"arch.protected_nor_us", "us"},
    {"arch.protected_nor_ns_per_lane_op", "ns"},
    {"arch.output_read_us", "us"},
    {"arch.consistency_check_us", "us"},
    {"bench_circuits.reference_check_us", "us"},
    {"xbar.unprotected_ops_us", "us"},
    {"arch.ecc_maintenance_ratio", "ratio"},
    {"arch.mem_cycles_per_op", "cycles"},
    {"arch.cmem_cycles_per_op", "cycles"},
    {"simpler.schedule_us", "us"},
    {"simpler.min_pcs_us", "us"},
    {"reliability.analytic_us", "us"},
    {"reliability.scenario.trials_per_s", "1/s"},
    {"reliability.fleet_mc.trials_per_s", "1/s"},
    {"reliability.lifetime.trials_per_s", "1/s"},
    {"reliability.scenario.parallel_speedup", "ratio"},
    {"reliability.fleet_mc.parallel_speedup", "ratio"},
    {"reliability.lifetime.parallel_speedup", "ratio"},
    {"arch.fleet_scrub.blocks_per_s", "1/s"},
    {"arch.fleet_scrub.parallel_speedup", "ratio"},
    {"reliability.faults_injected", "count"},
    {"reliability.errors_corrected", "count"},
    {"reliability.scrub_events", "count"},
    {"trace.coverage_min", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "e2e_bench: " << message
            << "\nusage: e2e_bench --workload run_n1020|control_mix|campaign --seed N "
               "--seconds S --trace 0|1 [--warmup S] [--setup-reps K] [--git-describe TEXT] "
               "[--out-dir DIR] [--inject-mismatch]\n";
  std::exit(2);
}

e2e::Options parse_options(int argc, char** argv) {
  e2e::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-mismatch") {
      options.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (value != "run_n1020" && value != "control_mix" && value != "campaign") {
        usage("unknown workload '" + value + "'");
      }
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto seed = pimecc::util::parse_u64(value);
      if (!seed) usage("bad --seed '" + value + "'");
      options.seed = *seed;
    } else if (arg == "--seconds") {
      const auto seconds = pimecc::util::parse_double(value);
      if (!seconds || !(*seconds > 0.0) || *seconds > e2e::kMaxSeconds) {
        usage("bad --seconds '" + value + "'");
      }
      options.seconds = *seconds;
    } else if (arg == "--warmup") {
      const auto seconds = pimecc::util::parse_double(value);
      if (!seconds || !(*seconds >= 0.0) || *seconds > 60.0) {
        usage("bad --warmup '" + value + "'");
      }
      options.warmup_seconds = *seconds;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--setup-reps") {
      const auto reps = pimecc::util::parse_u64(value);
      if (!reps || *reps == 0 || *reps > 100) usage("bad --setup-reps '" + value + "'");
      options.setup_reps = static_cast<std::size_t>(*reps);
    } else if (arg == "--git-describe") {
      options.git_describe = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void print_metric(const Metric& metric, const std::string& detail = {}) {
  char line[200];
  std::snprintf(line, sizeof(line), "  %-38s %16.6f %-7s", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  std::cout << line << detail << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options options = parse_options(argc, argv);
  std::cout << "e2e_bench workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
            << "\nhost:\n";
  for (const std::string& line : e2e::host_block(options)) {
    std::cout << "  " << line << '\n';
  }

  e2e::RunResult result;
  try {
    result = options.workload == "campaign"
                 ? e2e::run_campaign(options)
                 : e2e::run_serving(options, options.workload == "control_mix");
  } catch (const std::exception& e) {
    result.fail(std::string("uncaught exception: ") + e.what());
  }
  if (result.attempted == 0) result.fail("no operation completed");

  std::vector<Metric> metrics;
  if (!options.trace) {
    const std::vector<double>& sorted = result.latency.sorted();
    const e2e::Tail tail = e2e::tail_latency(sorted, result.tail_percentile);
    const double ops = static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
    metrics = {
        {"setup_s",
         result.setup_s.empty()
             ? 0.0
             : *std::min_element(result.setup_s.begin(), result.setup_s.end()),
         "s"},
        {"ops_per_s", result.elapsed_s > 0.0 ? ops / result.elapsed_s : 0.0, "1/s"},
        {"latency_p50_ms", e2e::percentile(sorted, 50.0), "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"cpu_ms_per_op", result.cpu_s * 1e3 / ops, "ms"},
        {"peak_rss_mib", e2e::peak_rss_mib(), "MiB"},
    };
    std::cout << "end-to-end (" << result.attempted << " operations in "
              << result.elapsed_s << " s):\n";
    std::vector<double> reps = result.setup_s;
    std::sort(reps.begin(), reps.end());
    print_metric(metrics[0],
                 " minimum of " + std::to_string(reps.size()) + " set-ups; median " +
                     number(reps.empty() ? 0.0 : reps[reps.size() / 2]) + ", maximum " +
                     number(reps.empty() ? 0.0 : reps.back()));
    print_metric(metrics[1]);
    print_metric(metrics[2]);
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  " p%g, %zu samples beyond it, n=%zu sampled of %llu; p99 %.6f ms, "
                  "p99.9 %.6f ms",
                  result.tail_percentile, tail.beyond, sorted.size(),
                  static_cast<unsigned long long>(result.attempted),
                  e2e::percentile(sorted, 99.0), e2e::percentile(sorted, 99.9));
    print_metric(metrics[3], detail);
    print_metric({"error_rate",
                  static_cast<double>(result.failed) / ops, "ratio"},
                 " (" + std::to_string(result.failed) + " of " +
                     std::to_string(result.attempted) + ")");
    print_metric(metrics[4]);
    print_metric(metrics[5]);
    std::cout << "ops/s per " << e2e::LatencySample::kWindowSeconds << " s window:";
    for (const std::uint64_t ops : result.latency.windows()) {
      std::cout << ' '
                << static_cast<double>(ops) / e2e::LatencySample::kWindowSeconds;
    }
    std::cout << '\n';
  } else {
    std::cout << "per-layer (traced replay):\n";
    for (const auto& [name, unit] : kPerLayer) {
      Metric metric{name, 0.0, unit};
      for (const Metric& measured : result.per_layer) {
        if (measured.name == name) metric.value = measured.value;
      }
      print_metric(metric);
      metrics.push_back(metric);
    }
  }
  for (const std::string& note : result.notes) std::cout << note << '\n';
  const bool correct = result.failures.empty();
  if (correct) {
    std::cout << "correctness: ok\n";
  } else {
    for (const std::string& failure : result.failures) {
      std::cout << "correctness FAILED: " << failure << '\n';
    }
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += i == 0 ? "\"" : ", \"";
    json += metrics[i].name;
    json += "\": {\"value\": ";
    json += number(metrics[i].value);
    json += ", \"unit\": \"";
    json += metrics[i].unit;
    json += "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
