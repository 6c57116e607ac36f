#include "util/executor.hpp"

#include <chrono>
#include <utility>

namespace pimecc::util {

Executor::Executor(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_main(); });
    }
  } catch (...) {
    stop_and_join();  // a failed spawn must not leave started threads unjoined
    throw;
  }
}

Executor::~Executor() { stop_and_join(); }

void Executor::stop_and_join() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

Executor& Executor::shared() {
  static Executor instance;  // lazy one-time startup, joined at exit
  return instance;
}

void Executor::enqueue(detail::Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool Executor::try_pop(detail::Task& task) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return false;
  task = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Executor::run_task(detail::Task& task) noexcept {
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  // Release the callable (and whatever it captured) while the group is
  // still guaranteed alive: after finish_one() its waiter may destroy it.
  task.fn = nullptr;
  task.group->finish_one(std::move(error));
}

void Executor::worker_main() {
  detail::Task task;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task);
  }
}

TaskGroup::TaskGroup(Executor& executor) : executor_(executor) {}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Unobserved task exception during unwinding; wait() exists to observe.
  }
}

void TaskGroup::submit(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  executor_.enqueue({std::move(fn), this});
}

void TaskGroup::wait() {
  detail::Task task;
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (executor_.try_pop(task)) {
      Executor::run_task(task);
      continue;
    }
    // The queue is empty: the remaining tasks are executing on other
    // threads.  The short timeout re-arms the help loop in case a running
    // task submits more work without routing a wakeup at us.
    std::unique_lock<std::mutex> lock(done_mutex_);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  // Lifetime fence: the last finish_one() decrements pending_ while holding
  // done_mutex_, so taking it here after observing zero blocks until that
  // worker has released it -- after which no thread touches this group.
  // Without this, the caller could destroy the group while the final
  // notify_all() is still executing.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::finish_one(std::exception_ptr error) noexcept {
  // The decrement MUST happen under done_mutex_: wait() re-confirms
  // pending_ == 0 under the same mutex before returning, so by the time a
  // waiter can destroy the group, the worker that retired the last task
  // has already left this critical section and never touches the group
  // again.  A lock-free fetch_sub here would let the waiter observe zero
  // (and free the group) between our decrement and the notify below.
  std::lock_guard<std::mutex> lock(done_mutex_);
  if (error && !error_) error_ = std::move(error);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

}  // namespace pimecc::util
