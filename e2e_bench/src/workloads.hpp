// e2e_bench -- workloads.hpp
//
// The three workloads.  Each sets itself up `options.setup_reps` times
// (setup_s is the minimum), runs its timed loop for `options.seconds`, checks
// every output, and -- when `options.trace` is set -- replays the same
// workload with spans for the per-layer metrics.
//
//   run_n1020    `run` requests at n=1020, m=15 through the daemon's text
//                protocol (serving.cpp)
//   control_mix  `map` / `mttf` / `sweep` requests at n=1020 (serving.cpp)
//   campaign     rel::run_scenario, rel::run_fleet_montecarlo,
//                rel::simulate_lifetime and CrossbarFleet::scrub_all called
//                directly at full executor width (campaign.cpp)
#pragma once

#include "report.hpp"

namespace e2e {

[[nodiscard]] RunResult run_serving(const Options& options, bool control_mix);
[[nodiscard]] RunResult run_campaign(const Options& options);

}  // namespace e2e
