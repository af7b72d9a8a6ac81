#include "support/thread_pool.h"

#include <algorithm>
#include <exception>

namespace selcache::support {

std::function<void(std::size_t)>& ThreadPool::spawn_fault_hook() {
  static std::function<void(std::size_t)> hook;
  return hook;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      if (auto& hook = spawn_fault_hook()) hook(i);
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn leaves i running workers; destroying their joinable
    // std::threads would std::terminate. Stop and join them, then let the
    // caller see the original exception.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain-before-exit: stop_ alone is not enough to leave while work
      // remains, so destruction completes every submitted task.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // submit() wraps every callable in a packaged_task, which captures its
    // exception in the future — so nothing should throw here. The backstop
    // keeps a misbehaving raw entry from unwinding off the worker thread
    // (which would std::terminate the process mid-sweep).
    try {
      task();
    } catch (...) {
      stray_exceptions_.fetch_add(1);
    }
  }
}

void run_cells(std::size_t n, unsigned threads,
               const std::function<void(std::size_t)>& cell) {
  std::exception_ptr first;
  const auto settle = [&first](const auto& run) {
    try {
      run();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  };
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) settle([&] { cell(i); });
  } else {
    std::vector<std::future<void>> done;
    done.reserve(n);
    {
      // A worker beyond the n-th would find no cell to run.
      ThreadPool pool(std::min<std::size_t>(threads, n));
      for (std::size_t i = 0; i < n; ++i)
        done.push_back(pool.submit([&cell, i] { cell(i); }));
    }  // ~ThreadPool drains: every cell has finished here
    for (std::future<void>& f : done) settle([&] { f.get(); });
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace selcache::support
