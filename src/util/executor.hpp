// pimecc -- util/executor.hpp
//
// Persistent thread pool: the shared concurrency substrate of the fleet
// engine, the reliability campaigns and the server's batches.  It replaced
// a one-shot contiguous-partition std::thread spawner, which rebuilt a pool
// per call and pinned each worker to a fixed trial range -- so one
// expensive trial serialized its whole contiguous chunk behind it.
//
// Architecture
//   - One Executor owns N worker threads (lazy one-time startup for the
//     process-wide Executor::shared(); N = hardware concurrency).
//   - One mutex-guarded FIFO of tasks and one condition variable: enqueue
//     pushes under the mutex and notifies; a worker sleeps on the condition
//     until the queue is non-empty or the executor stops, so no wakeup can
//     be lost.  A stopping executor drains the queue before its workers
//     exit.
//
// Why one queue is enough: every fan-out in pimecc goes through
// parallel_for_lanes below, which submits at most parallelism() long-lived
// lane tasks from the calling thread and balances the actual work with one
// atomic ticket counter.  The queue therefore sees a handful of pushes and
// pops per fan-out, however many trials, shards or requests the fan-out
// covers; per-worker deques and stealing pay off only for fine-grained
// tasks spawned from inside workers, and no caller does that.
//
// TaskGroup is the submit/wait unit.  wait() *helps*: the waiting thread
// pops and runs queued tasks (of any group) until the group's pending count
// reaches zero -- so nested groups inside tasks cannot deadlock, and on a
// machine with W workers a waiting caller gives min(lanes, W + 1) OS
// threads of real concurrency.  The first exception thrown by any task is
// captured and rethrown from wait() after every task of the group has
// finished (rethrow-after-join).
//
// Determinism: the executor itself promises nothing about which thread
// runs which task -- callers get thread-count-invariant results by giving
// every task a deterministic identity (a trial substream, a shard index)
// and writing into per-identity result slots or commutative integer
// accumulators.  parallel_for_lanes below packages that pattern; it is the
// one ticket loop under the campaign driver, the server's batches and the
// fleet.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pimecc::util {

class TaskGroup;

namespace detail {

/// One queued unit of work and the group that waits for it.
struct Task {
  std::function<void()> fn;
  TaskGroup* group = nullptr;
};

}  // namespace detail

/// Persistent pool of worker threads draining one shared FIFO of tasks.
class Executor {
 public:
  /// Spawns `workers` threads (0 = hardware concurrency, at least 1).
  explicit Executor(std::size_t workers = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor, started lazily on first use and shared by
  /// every fleet/reliability/memory-system entry point.
  [[nodiscard]] static Executor& shared();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// worker_count() + 1: the waiting caller helps, so this is the maximum
  /// number of OS threads that can be executing tasks concurrently.
  [[nodiscard]] std::size_t parallelism() const noexcept {
    return worker_count() + 1;
  }

 private:
  friend class TaskGroup;

  void enqueue(detail::Task task);
  /// Moves the oldest queued task into `task`; false when the queue is
  /// empty.  Never blocks on an empty queue.
  [[nodiscard]] bool try_pop(detail::Task& task);
  /// Runs one task, routing any exception into its group.
  static void run_task(detail::Task& task) noexcept;
  void worker_main();
  /// Sets stop_, wakes every worker and joins them once the queue drains.
  void stop_and_join() noexcept;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<detail::Task> queue_;  // guarded by mutex_
  bool stop_ = false;               // guarded by mutex_
  std::vector<std::thread> threads_;
};

/// A batch of tasks submitted together and waited on as a unit.
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor = Executor::shared());
  /// Waits for any still-pending tasks (exceptions are swallowed -- call
  /// wait() yourself to observe them).
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn`.  Callable from any thread, including from inside a task
  /// of this same group.
  void submit(std::function<void()> fn);

  /// Helps execute queued work until every submitted task has finished,
  /// then rethrows the first captured exception, if any.  May be called
  /// repeatedly; the group is reusable after wait() returns.
  void wait();

  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class Executor;

  /// Retires one task; `error` (null when it returned normally) is kept if
  /// it is the group's first.
  void finish_one(std::exception_ptr error) noexcept;

  Executor& executor_;
  std::atomic<std::size_t> pending_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;  // guarded by done_mutex_
};

/// Runs `body(lane, i)` for every i in [0, count) across up to `max_lanes`
/// lane tasks (0 = executor parallelism, never more than max(count, 1))
/// pulling single indices from a shared atomic ticket counter -- dynamic
/// load balancing with no per-index task allocation, so skewed per-index
/// costs cannot serialize behind a contiguous chunk.  `make_lane()` builds
/// one lane state per lane on the calling thread before any index runs;
/// each lane task owns its state exclusively.  Returns the lane states in
/// lane order for the caller to merge (commutative merges are lane-count
/// invariant).  The caller's thread helps, and the first exception a body
/// throws is rethrown after every lane has finished (the remaining indices
/// still run).  Deterministic whenever `body` writes only to slot i, its
/// lane state or commutative accumulators; which lane runs which index is
/// intentionally unspecified.  One lane (`max_lanes == 1` or count <= 1)
/// runs inline on the caller with no executor traffic.
template <typename Lane, typename MakeLane, typename Body>
std::vector<Lane> parallel_for_lanes(Executor& executor, std::size_t count,
                                     std::size_t max_lanes, MakeLane&& make_lane,
                                     Body&& body) {
  std::size_t lanes = max_lanes != 0 ? max_lanes : executor.parallelism();
  lanes = std::min(lanes, std::max<std::size_t>(count, 1));
  std::vector<Lane> lane_states;
  lane_states.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lane_states.push_back(make_lane());
  }
  if (lanes <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(lane_states[0], i);
    return lane_states;
  }
  std::atomic<std::size_t> next{0};
  TaskGroup group(executor);
  for (Lane& state : lane_states) {
    group.submit([&next, &body, count, lane = &state] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        body(*lane, i);
      }
    });
  }
  group.wait();
  return lane_states;
}

/// parallel_for_lanes without lane state: runs `body(i)` for every i in
/// [0, count), with the same tickets, lane cap and inline single lane.
template <typename Body>
void parallel_for(Executor& executor, std::size_t count, std::size_t max_lanes,
                  Body&& body) {
  struct NoLane {};
  (void)parallel_for_lanes<NoLane>(
      executor, count, max_lanes, [] { return NoLane{}; },
      [&body](NoLane&, std::size_t i) { body(i); });
}

}  // namespace pimecc::util
