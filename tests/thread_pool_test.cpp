#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace selcache::support {
namespace {

TEST(ThreadPool, ReturnsSubmittedResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i, &order] { order.push_back(i); }));
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // one failure must not poison the pool
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
    // No .get(): destruction itself must complete every queued task.
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

// Regression: a throwing task queued right before destruction must keep
// its exception in the future across the destructor's drain, not unwind a
// worker thread. (The drain runs every queued task; an unprotected task()
// call there would std::terminate the whole process on the first throw.)
TEST(ThreadPool, ThrowingTaskQueuedAtDestructionIsRetainedInFuture) {
  std::future<int> bad;
  std::future<int> good;
  {
    ThreadPool pool(1);
    // Park the worker so both tasks are still queued when the destructor
    // starts draining.
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    bad = pool.submit(
        []() -> int { throw std::runtime_error("late failure"); });
    good = pool.submit([] { return 11; });
  }
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 11);
}

// Regression: spawning worker k can throw (std::system_error on resource
// exhaustion). Before the constructor hardening, the k-1 already-started
// workers were joinable when the half-built pool unwound, so ~thread called
// std::terminate. Now the constructor stops and joins them first.
TEST(ThreadPool, PartialSpawnFailureCleansUpStartedWorkers) {
  ThreadPool::spawn_fault_hook() = [](std::size_t worker) {
    if (worker == 2) throw std::runtime_error("no more threads");
  };
  EXPECT_THROW(ThreadPool pool(4), std::runtime_error);
  ThreadPool::spawn_fault_hook() = nullptr;

  // The process survived (no std::terminate) and pools still work.
  ThreadPool pool(4);
  EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
  EXPECT_EQ(pool.stray_exceptions(), 0u);
}

TEST(ThreadPool, ManySmallTasksAcrossWorkers) {
  ThreadPool pool(8);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(1000);
  for (int i = 1; i <= 1000; ++i)
    futures.push_back(pool.submit([i, &sum] { sum += i; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 500500u);
}

// -- run_cells: the sweep engines' one fan-out --------------------------------

TEST(RunCells, EveryCellRunsAndTheLowestIndexExceptionWins) {
  for (unsigned threads : {0u, 1u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<std::atomic<int>> ran(64);
    try {
      run_cells(ran.size(), threads, [&ran](std::size_t i) {
        ++ran[i];
        if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "a throwing cell must surface";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7");
    }
    // Cells after the first failure still ran, each exactly once.
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  }
}

TEST(RunCells, SerialRunsInIndexOrderOnTheCaller) {
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  run_cells(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  run_cells(0, 4, [](std::size_t) { FAIL() << "no cells, no calls"; });
}

// A sweep of a few cells asked for many threads starts one worker per cell,
// not one per requested thread: a worker spawn past the third would throw.
TEST(RunCells, StartsNoMoreWorkersThanCells) {
  constexpr std::size_t kCells = 3;
  ThreadPool::spawn_fault_hook() = [](std::size_t worker) {
    if (worker >= kCells) throw std::runtime_error("worker without a cell");
  };
  std::vector<std::atomic<int>> ran(kCells);
  EXPECT_NO_THROW(run_cells(kCells, 64, [&ran](std::size_t i) { ++ran[i]; }));
  ThreadPool::spawn_fault_hook() = nullptr;
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace selcache::support
