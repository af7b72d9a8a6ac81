// The axis engine: core::sweep_axis runs every point of a machine axis by
// ride groups, one pass per structural group, and reads and writes the
// result store per (cell, point); a guarded signal stops a sweep before
// its next unit.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "core/runner.h"
#include "store/store.h"
#include "support/run_guard.h"
#include "support/signal_guard.h"

namespace selcache::core {
namespace {

namespace fs = std::filesystem;

/// Four of the cheaper workloads. Perl's optimizer changes nothing, so its
/// Pure Software and Combined copy Base and Pure Hardware; Vpenta's
/// optimized code differs from its original.
std::vector<workloads::WorkloadInfo> small_suite() {
  return {workloads::workload("Perl"), workloads::workload("Vpenta"),
          workloads::workload("TPC-C"), workloads::workload("TPC-D,Q6")};
}

/// The base machine, the same with 300-cycle memory (which shares its
/// structural group), and a larger L2 (a group of its own).
std::vector<MachineConfig> mixed_axis() {
  MachineConfig slow = base_machine();
  slow.hierarchy.mem.access_latency = 300;
  return {base_machine(), slow, larger_l2()};
}

void expect_rows_identical(const std::vector<ImprovementRow>& a,
                           const std::vector<ImprovementRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].benchmark);
    EXPECT_EQ(a[i].benchmark, b[i].benchmark);
    EXPECT_EQ(a[i].base_cycles, b[i].base_cycles);
    EXPECT_EQ(a[i].pct, b[i].pct);
    EXPECT_EQ(a[i].accesses, b[i].accesses);
    EXPECT_EQ(a[i].stats.all(), b[i].stats.all());
  }
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("selcache_axis_test_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

/// An axis that mixes latency-only and structural points gives, at 1 and at
/// 4 threads, the rows of solo run_version cells at each point
/// (sweep_resilient with 0 retries runs one per cell and shares nothing).
/// The store is read and written per (cell, point): a cold store receives
/// every one once, a warm read-only store serves them all, and a store that
/// holds one point's cells serves those and receives the rest.
TEST(SweepAxis, MatchesSoloRowsAndServesTheStorePerCellAndPoint) {
  const std::vector<workloads::WorkloadInfo> suite = small_suite();
  const std::vector<MachineConfig> machines = mixed_axis();
  const std::size_t cells = suite.size() * kAllVersions.size();
  const ParallelSweepOptions par{.num_threads = 4};

  std::vector<std::vector<ImprovementRow>> reference;
  for (const MachineConfig& m : machines)
    reference.push_back(sweep_resilient(suite, m, {}, par, 0).rows);
  const auto expect_reference =
      [&](const std::vector<std::vector<ImprovementRow>>& rows) {
        ASSERT_EQ(rows.size(), machines.size());
        for (std::size_t p = 0; p < rows.size(); ++p) {
          SCOPED_TRACE("point " + std::to_string(p));
          expect_rows_identical(reference[p], rows[p]);
        }
      };

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_reference(
        sweep_axis(machines, {}, {.num_threads = threads}, suite));
  }

  const std::string full = fresh_dir("full");
  {
    store::ResultStore cold(full);
    RunOptions opt;
    opt.result_store = &cold;
    expect_reference(sweep_axis(machines, opt, par, suite));
    EXPECT_EQ(cold.counters().misses, cells * machines.size());
    EXPECT_EQ(cold.counters().writes, cells * machines.size());
  }
  {
    store::ResultStore warm(full,
                            store::ResultStore::Options{.read_only = true});
    RunOptions opt;
    opt.result_store = &warm;
    expect_reference(sweep_axis(machines, opt, par, suite));
    EXPECT_EQ(warm.counters().hits, cells * machines.size());
    EXPECT_EQ(warm.counters().writes, 0u);
  }

  // Only the 300-cycle point's cells: its group is simulated again for the
  // base machine, and larger_l2 gets its own pass.
  const std::string partial = fresh_dir("partial");
  {
    store::ResultStore one_point(partial);
    RunOptions opt;
    opt.result_store = &one_point;
    sweep_axis({machines[1]}, opt, par, suite);
    EXPECT_EQ(one_point.counters().writes, cells);
  }
  {
    store::ResultStore s(partial);
    RunOptions opt;
    opt.result_store = &s;
    expect_reference(sweep_axis(machines, opt, par, suite));
    EXPECT_EQ(s.counters().hits, cells);
    EXPECT_EQ(s.counters().writes, cells * (machines.size() - 1));
  }
  fs::remove_all(full);
  fs::remove_all(partial);
}

/// Once a guarded signal has been noted, a sweep starts no unit: it throws
/// support::RunSuspended and saves nothing. Cleared, the same call
/// completes and saves every cell.
TEST(SweepAxis, NotedSignalStopsTheSweepBeforeAnyUnit) {
  const std::string dir = fresh_dir("signal");
  const workloads::WorkloadInfo& w = workloads::workload("Perl");
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    store::ResultStore s(dir);
    RunOptions opt;
    opt.result_store = &s;
    support::SignalGuard::note_signal(SIGTERM);
    EXPECT_THROW(
        improvements_for(w, base_machine(), opt, {.num_threads = threads}),
        support::RunSuspended);
    support::SignalGuard::reset();
    EXPECT_EQ(s.counters().writes, 0u);
  }
  store::ResultStore s(dir);
  RunOptions opt;
  opt.result_store = &s;
  improvements_for(w, base_machine(), opt);
  EXPECT_EQ(s.counters().writes, kAllVersions.size());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace selcache::core
