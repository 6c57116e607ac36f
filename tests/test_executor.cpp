// Executor suite: task-group nesting, the rethrow-after-join exception
// contract, skewed workloads, nested full-width fan-outs,
// deterministic slot writes under parallel_for, and the trial-pool
// regression that pins the dynamic-ticket fix for the old contiguous
// partitioner (a slow head trial must not serialize its chunk).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/executor.hpp"

namespace pimecc::util {
namespace {

TEST(Executor, SharedPoolHasAtLeastOneWorker) {
  Executor& pool = Executor::shared();
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_EQ(pool.parallelism(), pool.worker_count() + 1);
}

TEST(Executor, RunsEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  TaskGroup group;
  for (std::size_t i = 0; i < kTasks; ++i) {
    group.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  group.wait();
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Executor, TaskGroupIsReusableAfterWait) {
  std::atomic<int> count{0};
  TaskGroup group;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) group.submit([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
    EXPECT_EQ(group.pending(), 0u);
  }
}

TEST(Executor, NestedTaskGroupsDoNotDeadlock) {
  // Each outer task waits on its own inner group from inside a worker --
  // wait() must help rather than block the worker thread.
  std::atomic<int> inner_runs{0};
  TaskGroup outer;
  for (int i = 0; i < 8; ++i) {
    outer.submit([&inner_runs] {
      TaskGroup inner;
      for (int j = 0; j < 8; ++j) inner.submit([&inner_runs] { ++inner_runs; });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_runs.load(), 64);
}

TEST(Executor, ExceptionIsRethrownAfterEveryTaskFinished) {
  // The throwing task must not cancel its siblings: all 40 tasks run, and
  // wait() rethrows the first captured exception after the join.
  std::atomic<int> runs{0};
  TaskGroup group;
  for (int i = 0; i < 40; ++i) {
    group.submit([&runs, i] {
      ++runs;
      if (i == 13) throw std::runtime_error("task 13 failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(runs.load(), 40);
  EXPECT_EQ(group.pending(), 0u);
  // The group is clean again after the rethrow.
  group.submit([&runs] { ++runs; });
  group.wait();
  EXPECT_EQ(runs.load(), 41);
}

TEST(Executor, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<unsigned char> slots(kCount, 0);
  parallel_for(Executor::shared(), kCount, 0,
               [&slots](std::size_t i) { ++slots[i]; });
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), std::size_t{0}),
            kCount);
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(slots[i], 1u) << i;
}

TEST(Executor, ParallelForSingleLaneRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for(Executor::shared(), 16, 1,
               [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, SkewedWorkloadKeepsAllIndicesCovered) {
  // One index carries ~1000x the work of the rest; dynamic tickets mean
  // the heavy index occupies one lane while the others drain the tail.
  constexpr std::size_t kCount = 256;
  std::vector<std::uint64_t> slots(kCount, 0);
  parallel_for(Executor::shared(), kCount, 0, [&slots](std::size_t i) {
    const std::size_t reps = (i == 0) ? 200'000 : 200;
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) acc += (i + 1) * (r | 1);
    slots[i] = acc == 0 ? 1 : acc;  // data-dependent: defeats optimization
  });
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_NE(slots[i], 0u) << i;
}

TEST(TrialPool, LaneCountRespectsCapsAndTrialBound) {
  struct Lane {
    std::size_t trials = 0;
  };
  const auto lanes = parallel_for_lanes<Lane>(
      Executor::shared(), 5, 16, [] { return Lane{}; },
      [](Lane& lane, std::size_t) { ++lane.trials; });
  // Lanes never exceed the trial count; every trial ran exactly once.
  EXPECT_LE(lanes.size(), 5u);
  std::size_t total = 0;
  for (const Lane& lane : lanes) total += lane.trials;
  EXPECT_EQ(total, 5u);
}

TEST(TrialPool, PerTrialSlotsAreThreadCountInvariant) {
  struct Lane {
    std::vector<std::pair<std::size_t, std::uint64_t>> results;
  };
  auto run = [](std::size_t threads) {
    std::vector<std::uint64_t> slots(200, 0);
    const auto lanes = parallel_for_lanes<Lane>(
        Executor::shared(), slots.size(), threads, [] { return Lane{}; },
        [](Lane& lane, std::size_t t) {
          lane.results.emplace_back(t, t * 2654435761u + 17);
        });
    for (const Lane& lane : lanes) {
      for (const auto& [t, v] : lane.results) slots[t] = v;
    }
    return slots;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(7), serial);
  EXPECT_EQ(run(0), serial);
  // A full-width fan-out nested in every lane of an outer full-width one
  // (a server lane running a threads=0 campaign): the inner waits help
  // through the same queue the outer lanes came from.
  std::vector<std::vector<std::uint64_t>> nested(
      2 * Executor::shared().parallelism());
  parallel_for(Executor::shared(), nested.size(), 0,
               [&](std::size_t o) { nested[o] = run(0); });
  for (const auto& slots : nested) EXPECT_EQ(slots, serial);
}

TEST(TrialPool, SlowHeadTrialDoesNotSerializeTheRest) {
  // Regression for the contiguous partitioner this pool replaced: with
  // [0, trials) carved into contiguous chunks, trial 0 and trial 1 landed
  // in the same chunk, so a trial 0 that waits for every OTHER trial to
  // finish deadlocked.  Dynamic single-trial tickets run trial 0 on one
  // lane while the remaining lanes drain trials 1..N-1, so this completes.
  ASSERT_GE(Executor::shared().parallelism(), 2u);
  constexpr std::size_t kTrials = 32;
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t others_done = 0;
  struct Lane {};
  parallel_for_lanes<Lane>(
      Executor::shared(), kTrials, 2, [] { return Lane{}; },
      [&](Lane&, std::size_t t) {
        std::unique_lock<std::mutex> lock(mutex);
        if (t == 0) {
          done_cv.wait(lock, [&] { return others_done == kTrials - 1; });
        } else if (++others_done == kTrials - 1) {
          done_cv.notify_all();
        }
      });
  EXPECT_EQ(others_done, kTrials - 1);
}

TEST(Executor, PrivatePoolStartsAndDrainsIndependently) {
  Executor pool(2);
  EXPECT_EQ(pool.worker_count(), 2u);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) group.submit([&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace pimecc::util
