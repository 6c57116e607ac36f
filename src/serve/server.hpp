// pimecc -- serve/server.hpp
//
// The batched request engine behind `pimecc run|mttf|sweep|serve`: a
// concurrent submission queue in front of a handler that executes batches
// on the process-wide executor (util::Executor::shared() via
// parallel_for -- no thread pool of its own, per the repo's one-substrate
// rule).  Producers submit requests and get tickets; drain_once() admits up
// to max_batch pending requests, executes them with up to `lanes` executor
// lanes, and publishes each response under its ticket; take() blocks until
// its ticket is published.
//
// Robustness contract (tests/test_serve.cpp, "Robustness" suites):
//   - Admission is bounded: with max_pending set, try_submit() returns a
//     typed kRejected admission instead of growing the queue forever, and
//     submit() throws ServeError(kRejected) -- explicit backpressure the
//     daemon surfaces to clients as an `error code=rejected` line.
//   - Requests may carry a deadline (Request::deadline_ms, measured from
//     submission).  The deadline is checked cooperatively when a batch lane
//     picks the request up: an expired request is answered with
//     kDeadlineExceeded without executing.  A request already executing
//     runs to completion (no preemption).
//   - shutdown() stops admission, fails every still-queued request with
//     kCancelled, and raises a cancel flag that in-flight batch lanes check
//     before starting each item -- so a drain in progress finishes the work
//     it started, cancels the rest, and every ticket gets a response.
//   - take() of an already-consumed ticket throws immediately (it used to
//     wait on the publication condvar forever).
//
// Determinism: a response is a pure function of its request (run requests
// carry an explicit seed), so neither the batch boundaries nor the lane
// count can change any response bit -- pinned by tests/test_serve.cpp and
// cross-checked by bench_serving across lane counts.  Deadlines are the one
// deliberate exception: a request with deadline_ms > 0 consults the steady
// clock at admission into a lane.  The default (no deadline) keeps the
// engine clock-free, and latency is measured by the bench around the queue,
// never inside it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "serve/error.hpp"
#include "serve/registry.hpp"
#include "serve/request.hpp"

namespace pimecc::serve {

struct ServerConfig {
  std::size_t max_batch = 32;    ///< admission batch size (>= 1)
  std::size_t lanes = 0;         ///< executor lanes per batch; 0 = full width
  std::size_t max_pending = 0;   ///< admission queue bound; 0 = unbounded
};

/// Outcome of one admission attempt (try_submit).  `ticket` is only
/// meaningful when `admitted`; otherwise `code` says why (kRejected for
/// backpressure or a closed server) and `message` carries the detail.
struct Admission {
  bool admitted = false;
  std::uint64_t ticket = 0;
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});

  /// Serves one request synchronously (also the per-item body of
  /// drain_once, so queued and direct paths cannot diverge).  Never
  /// throws: handler exceptions become Response{ok=false} with the
  /// taxonomy code (ServeError -> its code; invalid_argument, out_of_range,
  /// length_error and simpler::RowOverflowError -> kInvalidArgument;
  /// anything else -> kInternal).
  [[nodiscard]] Response execute(const Request& request);

  // --- concurrent queue front end ----------------------------------------
  /// Attempts to enqueue a request; never throws for admission-control
  /// reasons.  The returned ticket (when admitted) is the submission index.
  [[nodiscard]] Admission try_submit(Request request);
  /// Enqueues a request; the returned ticket is its submission index.
  /// Throws ServeError(kRejected) when closed or the queue is full.
  std::uint64_t submit(Request request);
  /// Admits up to max_batch pending requests, executes them, publishes the
  /// responses.  Expired or cancelled requests are answered without
  /// executing.  Returns the number of tickets answered (0 when the queue
  /// was empty).
  std::size_t drain_once();
  /// Drains until the queue is empty; returns the total answered.
  std::size_t drain();
  /// Blocks until `ticket` is published (some thread must be draining),
  /// then removes and returns its response.  Throws ServeError:
  /// kInvalidArgument for a never-issued or already-taken ticket,
  /// kCancelled when the server closed before the response existed.
  [[nodiscard]] Response take(std::uint64_t ticket);
  /// Rejects further submits and wakes blocked take() calls.  Pending
  /// requests already submitted may still be drained and taken.
  void close();
  /// Graceful stop: close(), then fail every still-queued request with a
  /// published kCancelled response and raise the cooperative cancel flag
  /// consulted by in-flight batch lanes.  Returns the number of queued
  /// requests cancelled (in-flight items cancel asynchronously and are
  /// counted by their own kCancelled responses).  Idempotent.
  std::size_t shutdown();

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] Registry& registry() noexcept { return registry_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::uint64_t ticket = 0;
    Request request;
    /// Absolute expiry computed at admission; nullopt = no deadline.
    std::optional<Clock::time_point> deadline;
  };

  Response handle(const Request& request);  // may throw; execute() wraps
  /// Marks `ticket` consumed (caller holds mutex_).  Tickets are usually
  /// taken in order, so this compacts to a floor + sparse stragglers.
  void mark_taken(std::uint64_t ticket);
  [[nodiscard]] bool is_taken(std::uint64_t ticket) const;

  ServerConfig config_;
  Registry registry_;

  mutable std::mutex mutex_;
  std::condition_variable published_cv_;
  std::deque<Pending> queue_;
  std::map<std::uint64_t, Response> responses_;
  std::uint64_t next_ticket_ = 0;
  bool closed_ = false;
  /// Every ticket below the floor has been taken; stragglers (out-of-order
  /// takes, abandoned tickets) live in the sparse set until the floor
  /// catches up.  Guarded by mutex_.
  std::uint64_t taken_floor_ = 0;
  std::set<std::uint64_t> taken_;
  /// Raised by shutdown(); batch lanes check it before starting each item.
  std::atomic<bool> cancel_{false};
};

}  // namespace pimecc::serve
