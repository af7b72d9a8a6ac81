// The axis engine: core::sweep_axis runs every point of a machine axis by
// ride groups, one pass per structural group, and reads and writes the
// result store per (cell, point); a guarded signal stops a sweep before
// its next unit. core::run_units runs the same units for exactly the cells
// a caller asks for and reports them through its hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "core/runner.h"
#include "ir/builder.h"
#include "store/store.h"
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

/// Options that rule rides out are a precondition failure: a tape or a
/// fault campaign throws before any unit runs.
TEST(SweepAxis, OptionsThatRuleRidesOutThrow) {
  const std::vector<workloads::WorkloadInfo> suite = {
      workloads::workload("Perl")};
  RunOptions taped;
  taped.reuse_tape = true;
  EXPECT_THROW(sweep_axis(mixed_axis(), taped, {}, suite), std::logic_error);
  RunOptions faulted;
  faulted.fault.kind = fault::FaultKind::ToggleDrop;
  faulted.fault.rate = 0.5;
  EXPECT_THROW(sweep_axis(mixed_axis(), faulted, {}, suite),
               std::logic_error);
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

/// A workload whose every interpretation throws: it chases a record pool,
/// which the data environment refuses once the reference runs.
workloads::WorkloadInfo throwing_workload() {
  workloads::WorkloadInfo w;
  w.name = "Throws";
  w.category = workloads::Category::Mixed;
  w.build = [] {
    ir::ProgramBuilder b("throws");
    const ir::PoolId records = b.record_pool("R", 16, 32);
    b.begin_loop("i", 0, 4);
    b.stmt({ir::chase(records)});
    b.end_loop();
    return b.finish();
  };
  return w;
}

/// The cells run_units reported to each hook, sorted, and the last failure.
struct Seen {
  std::mutex mu;
  std::vector<std::size_t> started, saved, failed;
  std::string reason;

  UnitHooks hooks(bool start = true) {
    const auto note = [this](std::vector<std::size_t>& to,
                             const std::vector<std::size_t>& ids) {
      std::lock_guard lock(mu);
      to.insert(to.end(), ids.begin(), ids.end());
      std::sort(to.begin(), to.end());
    };
    return {.start = [=, this](const std::vector<std::size_t>& ids) {
              if (start) note(started, ids);
              return start;
            },
            .saved = [=, this](std::size_t i,
                               const RunResult&) { note(saved, {i}); },
            .failed = [=, this](const std::vector<std::size_t>& ids,
                                const std::string& why) {
              note(failed, ids);
              std::lock_guard lock(mu);
              reason = why;
            }};
  }
};

/// Perl's optimizer changes nothing, so Base, Pure Hardware and Selective
/// (cells 0, 1, 4) are simulated and Pure Software and Combined (2, 3) copy
/// Base and Pure Hardware. The second workload's units throw: the failure
/// hook gets their cells with the copies that depend on them, none of
/// which is settled, and Perl's row is improvements_for's. A start hook
/// that refuses every unit settles nothing. Copies alone take the results
/// the caller supplies, and a copy whose source is neither asked for nor
/// supplied fails.
TEST(RunUnits, HooksReportStartsSavesAndFailures) {
  const std::vector<workloads::WorkloadInfo> suite = {
      workloads::workload("Perl"), throwing_workload()};
  constexpr std::size_t nv = kAllVersions.size();
  const std::vector<ImprovementRow> perl = {
      improvements_for(suite[0], base_machine())};
  const std::vector<bool> all(suite.size() * nv, true);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Seen seen;
    std::vector<std::optional<RunResult>> cells(all.size());
    run_units(suite, base_machine(), {}, {.num_threads = threads}, all, cells,
              seen.hooks());
    EXPECT_EQ(seen.saved, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(seen.failed, (std::vector<std::size_t>{5, 6, 7, 8, 9}));
    EXPECT_NE(seen.reason.find("is not a chase pool"), std::string::npos)
        << seen.reason;
    EXPECT_EQ(std::count_if(seen.started.begin(), seen.started.end(),
                            [](std::size_t i) { return i < nv; }),
              3);
    std::array<std::optional<RunResult>, nv> row;
    std::copy(cells.begin(), cells.begin() + nv, row.begin());
    expect_rows_identical(perl, {make_row_partial(suite[0], row)});
    for (std::size_t i = nv; i < cells.size(); ++i)
      EXPECT_FALSE(cells[i].has_value()) << i;

    Seen refused;
    std::vector<std::optional<RunResult>> none(all.size());
    run_units(suite, base_machine(), {}, {.num_threads = threads}, all, none,
              refused.hooks(/*start=*/false));
    EXPECT_TRUE(refused.saved.empty() && refused.failed.empty());
    EXPECT_EQ(std::count(none.begin(), none.end(), std::nullopt),
              static_cast<std::ptrdiff_t>(none.size()));

    // Pure Software's source (Base) is supplied; Combined's (Pure
    // Hardware) is not.
    Seen copies;
    std::vector<std::optional<RunResult>> partial(all.size());
    partial[0] = cells[0];
    std::vector<bool> todo(all.size(), false);
    todo[2] = todo[3] = true;
    run_units(suite, base_machine(), {}, {.num_threads = threads}, todo,
              partial, copies.hooks());
    EXPECT_TRUE(copies.started.empty());
    EXPECT_EQ(copies.saved, (std::vector<std::size_t>{2}));
    EXPECT_EQ(copies.failed, (std::vector<std::size_t>{3}));
    ASSERT_TRUE(partial[2].has_value());
    EXPECT_EQ(partial[2]->cycles, cells[2]->cycles);
    EXPECT_FALSE(partial[3].has_value());
  }
}

}  // namespace
}  // namespace selcache::core
