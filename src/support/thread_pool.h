// Fixed-size worker pool with a FIFO task queue and future-based results,
// plus run_cells(), the one fan-out every sweep engine runs its cells on.
//
// Built for the parallel experiment engine: each submitted task is an
// independent simulation owning all of its state, so the pool needs no
// shared-data machinery beyond the queue itself. Tasks run in submission
// order (FIFO dispatch); with one worker the pool degenerates to strictly
// serial execution, which the determinism tests rely on.
//
// Exceptions thrown by a task are captured in its future and rethrown at
// get(), never on the worker thread — including during the drain that
// ~ThreadPool() performs, so a throwing task queued at destruction time is
// retained in its future instead of terminating the process. A callable
// that somehow throws outside its packaged_task wrapper (a broken_promise
// pathway, a hostile std::function) is swallowed by a worker-loop backstop
// and counted in stray_exceptions() rather than escaping the thread.
//
// There is no cancellation: a sweep that must stop early (a signal, a run
// deadline) lets each remaining cell see the stop and return at once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace selcache::support {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one). If spawning worker k
  /// fails (resource exhaustion), the k-1 already-running workers are
  /// stopped and joined before the exception propagates — a partially
  /// constructed pool never leaks joinable threads (whose destruction
  /// would call std::terminate).
  explicit ThreadPool(std::size_t num_threads);

  /// Waits for all queued and running tasks to finish, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result. The callable's
  /// exceptions propagate through the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  std::size_t num_threads() const { return workers_.size(); }

  /// Tasks whose exception escaped the packaged_task wrapper and was
  /// absorbed by the worker-loop backstop. Always 0 for tasks entered via
  /// submit(); a nonzero value means a raw queue entry misbehaved.
  std::uint64_t stray_exceptions() const { return stray_exceptions_.load(); }

  /// Test/fault-injection hook: invoked with the worker index just before
  /// each std::thread is spawned; throwing simulates thread-creation
  /// failure at that point. Process-global and unsynchronized — set it
  /// only from single-threaded test setup, and reset to nullptr after.
  static std::function<void(std::size_t)>& spawn_fault_hook();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;  ///< destructor drain (completes queue)
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> stray_exceptions_{0};
};

/// Run cell(i) for every i in [0, n): in index order on the caller when
/// threads <= 1, otherwise as one ThreadPool task per index, submitted in
/// index order to min(threads, n) workers. Every cell finishes before this
/// returns; then the exception of the lowest-index cell that threw (if any)
/// is rethrown. Cells must not share mutable state, or must synchronize it
/// themselves.
void run_cells(std::size_t n, unsigned threads,
               const std::function<void(std::size_t)>& cell);

}  // namespace selcache::support
