// pimecc -- util/executor.hpp
//
// Persistent work-stealing thread pool: the shared concurrency substrate of
// the fleet-scale simulation layer (and of every later serving/sweep
// subsystem).  It replaced a one-shot contiguous-partition std::thread
// spawner, which rebuilt a pool per call and pinned each worker to a fixed
// trial range -- so one expensive trial serialized its whole contiguous
// chunk behind it.
//
// Architecture
//   - One Executor owns N worker threads (lazy one-time startup for the
//     process-wide Executor::shared(); N = hardware concurrency).
//   - Each worker owns a Chase-Lev deque: the owner pushes and pops at the
//     bottom (LIFO, cache-warm), idle threads steal from the top (FIFO,
//     oldest first).  The implementation follows the weak-memory-model
//     formulation of Le, Pop, Cohen & Zappa Nardelli (PPoPP'13), with
//     atomic slot arrays retired-not-freed on growth so a racing thief
//     never reads reclaimed memory.
//   - A shared mutex-protected injection queue receives submissions from
//     threads that are not workers of this executor (the main thread, a
//     test thread, a worker of another executor); workers drain it between
//     deque scans, so external work cannot starve.
//   - Sleep/wake is epoch-based: enqueue bumps a work epoch under the idle
//     mutex and notifies; a worker sleeps only if the epoch has not moved
//     since before its last full scan, so wakeups cannot be lost.
//
// TaskGroup is the submit/wait unit.  wait() *helps*: the waiting thread
// executes queued tasks (its own deque first when it is a worker, then the
// injection queue, then steals) until the group's pending count reaches
// zero -- so nested groups inside tasks cannot deadlock, and on a machine
// with W workers a waiting caller gives min(lanes, W + 1) OS threads of
// real concurrency.  The first exception thrown by any task is captured
// and rethrown from wait() after every task of the group has finished
// (rethrow-after-join).
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

class StealDeque;

/// One queued unit of work, owned by its TaskGroup (stable address).
struct Task {
  std::function<void()> fn;
  TaskGroup* group = nullptr;
};

}  // namespace detail

/// Persistent pool of worker threads with per-worker work-stealing deques
/// and a shared injection queue.
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

  [[nodiscard]] std::size_t worker_count() const noexcept;

  /// worker_count() + 1: the waiting caller helps, so this is the maximum
  /// number of OS threads that can be executing tasks concurrently.
  [[nodiscard]] std::size_t parallelism() const noexcept {
    return worker_count() + 1;
  }

 private:
  friend class TaskGroup;

  struct Worker;

  static constexpr std::size_t kNotAWorker = ~std::size_t{0};

  void enqueue(detail::Task* task);
  /// Own-deque pop (workers only), then injection queue, then a steal sweep
  /// over every worker deque; nullptr when nothing was acquired.
  [[nodiscard]] detail::Task* try_acquire(std::size_t self);
  /// Runs one task, routing any exception into its group.
  void run_task(detail::Task* task) noexcept;
  void worker_main(std::size_t index);
  /// This thread's worker index in *this* executor, or kNotAWorker.
  [[nodiscard]] std::size_t self_index() const noexcept;

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex inject_mutex_;
  std::deque<detail::Task*> inject_;

  // Lost-wakeup-free sleep: enqueue bumps the epoch under idle_mutex_ and
  // notifies; a worker that found nothing re-checks the epoch under the
  // mutex before sleeping.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  bool stop_ = false;  // guarded by idle_mutex_
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
  /// of this same group (the nesting the scheduler relies on).
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

  void capture_exception(std::exception_ptr error) noexcept;
  void finish_one() noexcept;

  Executor& executor_;
  std::mutex tasks_mutex_;
  std::deque<detail::Task> tasks_;  // stable addresses; freed with the group
  std::atomic<std::size_t> pending_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::mutex error_mutex_;
  std::exception_ptr error_;
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
