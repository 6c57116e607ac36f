// pimecc -- reliability/parallel.hpp
//
// The lane pool under the campaign driver (reliability/campaign.hpp),
// built on the persistent work-stealing executor (util/executor.hpp).
// Lanes pull single ticket indices from a shared atomic counter, so a slow
// ticket occupies exactly one lane while every other lane drains the rest,
// and no threads are created per call.  Exceptions thrown by a ticket are
// captured and rethrown after every lane has finished
// (TaskGroup::wait's rethrow-after-join contract); the remaining tickets
// still run.  (reference_reliability.cpp keeps its own frozen copy of the
// old per-call spawner by design.)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/executor.hpp"

namespace pimecc::rel::detail {

/// Runs `run_trial(lane_state, t)` once for every t in [0, trials) over a
/// pool of lanes with dynamic single-trial tickets.  `threads` caps the
/// lane count (0 = the shared executor's parallelism); lanes never exceed
/// the trial count because more could not run anyway.  `make_lane()` is
/// called once per lane, on the calling thread, before any trial runs;
/// each lane task owns its state exclusively.  Returns the lane states in
/// lane order for the caller to merge (commutative merges are
/// thread-count invariant).  threads == 1 runs inline with no executor
/// traffic, preserving the serial path exactly.
template <typename Lane, typename MakeLane, typename RunTrial>
std::vector<Lane> run_trial_pool(std::size_t trials, std::size_t threads,
                                 MakeLane&& make_lane, RunTrial&& run_trial) {
  std::size_t lanes =
      threads != 0 ? threads : util::Executor::shared().parallelism();
  lanes = std::min(lanes, std::max<std::size_t>(trials, 1));

  std::vector<Lane> lane_states;
  lane_states.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lane_states.push_back(make_lane());

  if (lanes <= 1) {
    for (std::size_t t = 0; t < trials; ++t) run_trial(lane_states[0], t);
    return lane_states;
  }

  std::atomic<std::size_t> next{0};
  util::TaskGroup group(util::Executor::shared());
  for (std::size_t i = 0; i < lanes; ++i) {
    group.submit([&next, &run_trial, trials, lane = &lane_states[i]] {
      for (;;) {
        const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= trials) return;
        run_trial(*lane, t);
      }
    });
  }
  group.wait();  // helps; rethrows the first trial exception after the join
  return lane_states;
}

}  // namespace pimecc::rel::detail
