// Determinism contract of the parallel experiment engine: a sweep fanned out
// over N worker threads must be bit-identical to the serial sweep — same
// cycles, same improvement percentages, same merged stat counters — for
// every hardware scheme.
#include <gtest/gtest.h>

#include <future>
#include <span>

#include "core/runner.h"
#include "ir/builder.h"
#include "support/thread_pool.h"

namespace selcache::core {
namespace {

void expect_rows_identical(const std::vector<ImprovementRow>& serial,
                           const std::vector<ImprovementRow>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].benchmark);
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].base_cycles, parallel[i].base_cycles);
    ASSERT_EQ(serial[i].pct.size(), parallel[i].pct.size());
    for (const auto& [v, pct] : serial[i].pct) {
      ASSERT_TRUE(parallel[i].pct.count(v)) << to_string(v);
      // Bit-identical, not approximately equal: both paths must compute the
      // percentage from the same integer cycle counts.
      EXPECT_EQ(pct, parallel[i].pct.at(v)) << to_string(v);
    }
    EXPECT_EQ(serial[i].accesses, parallel[i].accesses);
    EXPECT_EQ(serial[i].stats.all(), parallel[i].stats.all());
  }
}

/// Rows built from solo run_version calls: no sweep engine and no shared
/// interpretation, every version interprets its own code product. The
/// calls share nothing, so they run as independent tasks on a pool.
std::vector<ImprovementRow> solo_rows(
    std::span<const workloads::WorkloadInfo> suite, const MachineConfig& m,
    const RunOptions& opt) {
  support::ThreadPool pool(4);
  std::vector<std::future<RunResult>> cells;
  for (const auto& w : suite)
    for (Version v : kAllVersions)
      cells.push_back(pool.submit(
          [&w, &m, v, &opt] { return run_version(w, m, v, opt); }));
  std::vector<ImprovementRow> rows;
  auto next = cells.begin();
  for (const auto& w : suite) {
    std::array<RunResult, kAllVersions.size()> results;
    for (RunResult& r : results) r = (next++)->get();
    rows.push_back(make_improvement_row(w, results));
  }
  return rows;
}

class SweepDeterminism : public ::testing::TestWithParam<hw::SchemeKind> {};

/// A cell's result does not depend on which other cells share its sweep:
/// the sweep at 1 and 4 threads (22 interpretations drive 57 simulations,
/// 8 versions are copies) and at 8 threads (Swim's and Applu's groups
/// split, 26 interpretations) matches solo run_version rows bit for bit.
TEST_P(SweepDeterminism, ParallelSweepMatchesSerialBitForBit) {
  const MachineConfig m = base_machine();
  RunOptions opt;
  opt.scheme = GetParam();

  const auto reference = solo_rows(workloads::all_workloads(), m, opt);
  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_rows_identical(
        reference,
        sweep_suite(m, opt, ParallelSweepOptions{.num_threads = threads}));
  }
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, SweepDeterminism,
                         ::testing::Values(hw::SchemeKind::Bypass,
                                           hw::SchemeKind::Victim),
                         [](const auto& info) {
                           return std::string(hw::to_string(info.param));
                         });

TEST(SweepDeterminism, SingleWorkloadParallelMatchesSerial) {
  const MachineConfig m = base_machine();
  const auto& w = workloads::all_workloads().front();
  const ImprovementRow serial = improvements_for(w, m);
  const ImprovementRow parallel =
      improvements_for(w, m, RunOptions{},
                       ParallelSweepOptions{.num_threads = 3});
  expect_rows_identical({serial}, {parallel});
}

/// Applu's optimizer changes nothing: at 1 thread one interpretation drives
/// Base, Pure Hardware and Selective and the other two copy; at 4 threads
/// that group is the whole sweep, so it splits into three interpretations
/// (its Selective runs markers and may fork, so it interprets alone) and
/// keeps the copies. Swim runs no marker: at 4 threads both of its groups
/// split, Base, Pure Hardware and Combined interpret alone, and Selective,
/// which never forks, stays on Pure Software's interpretation (four
/// interpretations). Every plan gives the solo rows.
TEST(SweepDeterminism, MergedAndSplitPlansGiveTheSoloRows) {
  const MachineConfig m = base_machine();
  const workloads::WorkloadInfo& w = workloads::workload("Applu");
  const std::span<const workloads::WorkloadInfo> one(&w, 1);
  const SweepPlan merged = plan_sweep(one, {}, {.num_threads = 1});
  EXPECT_EQ(merged.interpretations, 1u);
  EXPECT_EQ(merged.simulations, 3u);
  EXPECT_EQ(merged.copies, 2u);
  const SweepPlan split = plan_sweep(one, {}, {.num_threads = 4});
  EXPECT_EQ(split.interpretations, 3u);
  EXPECT_EQ(split.simulations, 3u);
  EXPECT_EQ(split.copies, 2u);

  const workloads::WorkloadInfo& swim = workloads::workload("Swim");
  const std::span<const workloads::WorkloadInfo> swim_only(&swim, 1);
  EXPECT_EQ(plan_sweep(swim_only, {}, {.num_threads = 1}).interpretations,
            2u);
  EXPECT_EQ(plan_sweep(swim_only, {}, {.num_threads = 4}).interpretations,
            4u);

  for (const workloads::WorkloadInfo* x : {&w, &swim}) {
    SCOPED_TRACE(x->name);
    const auto reference = solo_rows({x, 1}, m, {});
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_rows_identical(
          reference,
          {improvements_for(*x, m, {}, {.num_threads = threads})});
    }
  }
}

// --- ride groups -----------------------------------------------------------

/// The planner on the real suite. The optimizer changes nothing in Perl,
/// Compress, Li and Applu, so their Pure Software and Combined copy Base and
/// Pure Hardware (8 copies), and one interpretation of the marked code
/// drives the other three; every other workload interprets its original
/// and its marked code once each: 4 + 9 x 2 = 22 interpretations and
/// 4 x 3 + 9 x 5 = 57 simulations.
TEST(RidePlan, SuitePlanCountsAndTheCriticalPathRule) {
  const auto& suite = workloads::all_workloads();
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SweepPlan p = plan_sweep(suite, {}, {.num_threads = threads});
    EXPECT_EQ(p.interpretations, 22u);
    EXPECT_EQ(p.simulations, 57u);
    EXPECT_EQ(p.copies, 8u);
  }
  // At 8 threads Swim's two groups and Applu's one each simulate more than
  // 1/8 of the sweep's references, so they split: Applu's into three,
  // Swim's into Base, Pure Hardware, Combined, and Pure Software with
  // Selective, which runs no marker, so it never forks and counts as no
  // simulation. 22 - 3 + 3 + 4 = 26 interpretations.
  const SweepPlan p8 = plan_sweep(suite, {}, {.num_threads = 8});
  EXPECT_EQ(p8.interpretations, 26u);
  EXPECT_EQ(p8.simulations, 57u);
  EXPECT_EQ(p8.copies, 8u);

  // A one-workload sweep at 4 threads: both of Swim's groups are over a
  // quarter of it, so each version interprets alone, except Selective,
  // which stays on Pure Software's interpretation.
  const workloads::WorkloadInfo& swim = workloads::workload("Swim");
  const SweepPlan s = plan_sweep({&swim, 1}, {}, {.num_threads = 4});
  EXPECT_EQ(s.interpretations, 4u);
  EXPECT_EQ(s.simulations, 5u);
  EXPECT_EQ(s.copies, 0u);

  // Tapes (and fault campaigns) keep one interpretation per version.
  RunOptions taped;
  taped.reuse_tape = true;
  const SweepPlan t = plan_sweep(suite, taped, {.num_threads = 4});
  EXPECT_EQ(t.interpretations, 65u);
  EXPECT_EQ(t.simulations, 65u);
  EXPECT_EQ(t.copies, 0u);
}

/// ride_groups decides from the built products alone.
TEST(RidePlan, GroupsFollowStructuralEquality) {
  using V = Version;
  using Rides = std::vector<std::vector<Version>>;
  ir::ProgramBuilder b("hand");
  const auto A = b.array("A", {64});
  const auto i = b.begin_loop("i", 0, 64);
  b.stmt({ir::load_array(A, {b.sub(i)})}, 1);
  b.end_loop();
  const ir::Program original = b.finish();
  const auto with_markers = [](const ir::Program& p) {
    ir::Program q = p.clone();
    q.top().insert(q.top().begin(), std::make_unique<ir::ToggleNode>(true, 0));
    q.top().push_back(std::make_unique<ir::ToggleNode>(false, 0));
    return q;
  };
  const auto stmt = [](ir::Program& p) -> ir::Stmt& {
    auto& loop = static_cast<ir::LoopNode&>(*p.top()[1]);
    return static_cast<ir::StmtNode&>(*loop.body.front()).stmt;
  };

  // Markers only: one interpretation drives everything.
  RideGroups g = ride_groups(original, original.clone(), with_markers(original));
  EXPECT_TRUE(g.copies);
  EXPECT_EQ(g.rides, (Rides{{V::Base, V::PureHardware, V::Selective}}));

  // Marker insertion that also moves code: Selective interprets alone.
  ir::Program moved = with_markers(original);
  stmt(moved).code_addr += 4;
  g = ride_groups(original, original.clone(), moved);
  EXPECT_TRUE(g.copies);
  EXPECT_EQ(g.rides, (Rides{{V::Base, V::PureHardware}, {V::Selective}}));

  // An optimized layout: Pure Software and Combined ride the marked code.
  ir::Program optimized = original.clone();
  optimized.array(A).pad_elems = 4;
  g = ride_groups(original, optimized, with_markers(optimized));
  EXPECT_FALSE(g.copies);
  EXPECT_EQ(g.rides, (Rides{{V::Base, V::PureHardware},
                            {V::PureSoftware, V::Combined, V::Selective}}));

  // All three differ: three interpretations.
  g = ride_groups(original, optimized, moved);
  EXPECT_FALSE(g.copies);
  EXPECT_EQ(g.rides, (Rides{{V::Base, V::PureHardware},
                            {V::PureSoftware, V::Combined},
                            {V::Selective}}));
}

TEST(SweepDeterminism, RowsCarryAccessCountsAndPrefixedStats) {
  const MachineConfig m = base_machine();
  const auto& w = workloads::all_workloads().front();
  const ImprovementRow row = improvements_for(w, m);
  EXPECT_GT(row.accesses, 0u);
  EXPECT_GT(row.stats.get("base.l1d.hits") + row.stats.get("base.l1d.misses"),
            0u);
  EXPECT_GT(row.stats.get("selective.cpu.instructions"), 0u);
}

/// A plain sweep does not isolate failures: a cell's exception reaches the
/// caller, at one thread and at four.
TEST(SweepDeterminism, PlainSweepPropagatesACellFailure) {
  const MachineConfig m = base_machine();
  RunOptions opt;
  opt.watchdog_accesses = 50;  // far below any real run
  const auto& w = workloads::all_workloads().front();
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const ParallelSweepOptions par{.num_threads = threads};
    EXPECT_THROW(sweep_suite(m, opt, par), fault::WatchdogExceeded);
    EXPECT_THROW(improvements_for(w, m, opt, par), fault::WatchdogExceeded);
  }
}

// --- failure-isolated (resilient) engine ---------------------------------

RunOptions toggle_drop_campaign() {
  RunOptions opt;
  opt.fault.kind = fault::FaultKind::ToggleDrop;
  opt.fault.rate = 0.5;
  opt.fault.seed = 2026;
  return opt;
}

/// The determinism contract extended to faults: the same sweep-level fault
/// seed must yield a bit-identical ResilientSweep — rows, FailureReport,
/// and trace captures — at every thread count.
TEST(ResilientDeterminism, FaultedSweepBitIdenticalAcrossThreadCounts) {
  const MachineConfig m = base_machine();
  const RunOptions opt = toggle_drop_campaign();
  const auto& suite = workloads::all_workloads();

  std::vector<TraceCapture> serial_traces;
  const ResilientSweep serial = sweep_resilient(
      suite, m, opt, ParallelSweepOptions{.num_threads = 1}, 1, &serial_traces);
  for (unsigned threads : {4u, 8u}) {
    SCOPED_TRACE(threads);
    std::vector<TraceCapture> traces;
    const ResilientSweep parallel = sweep_resilient(
        suite, m, opt, ParallelSweepOptions{.num_threads = threads}, 1,
        &traces);
    expect_rows_identical(serial.rows, parallel.rows);
    EXPECT_EQ(serial.report, parallel.report);
    ASSERT_EQ(serial_traces.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(serial_traces[i].workload, traces[i].workload);
      EXPECT_EQ(serial_traces[i].version, traces[i].version);
      EXPECT_EQ(serial_traces[i].recording, traces[i].recording);
    }
  }
  // The rendered report is part of the contract too.
  EXPECT_EQ(serial.report.csv(),
            sweep_resilient(suite, m, opt,
                            ParallelSweepOptions{.num_threads = 4}, 1)
                .report.csv());
}

/// An injected per-task crash must fail only its own cell: the sweep
/// completes, the cell lands in the FailureReport with its retry count and
/// per-attempt fault seed, and every surviving cell matches the unfaulted
/// sweep bit for bit.
TEST(ResilientDeterminism, InjectedCrashQuarantinesOnlyItsCell) {
  const MachineConfig m = base_machine();
  RunOptions fopt;
  fopt.fault.kind = fault::FaultKind::TaskCrash;
  fopt.fault.rate = 1e-7;  // rare: some cells crash, most survive
  fopt.fault.seed = 7;
  const std::uint32_t max_retries = 2;

  const ResilientSweep rs =
      sweep_resilient(workloads::all_workloads(), m, fopt, {}, max_retries);
  ASSERT_EQ(rs.report.cells.size(),
            workloads::all_workloads().size() * kAllVersions.size());
  const std::size_t failed = rs.report.failed_cells();
  ASSERT_GT(failed, 0u) << "campaign must actually crash something";
  ASSERT_LT(failed, rs.report.cells.size()) << "and spare something";

  for (const auto& cell : rs.report.cells) {
    SCOPED_TRACE(cell.workload + "/" + cell.version);
    if (cell.status == fault::CellOutcome::Status::Failed) {
      EXPECT_EQ(cell.attempts, max_retries + 1);
      EXPECT_NE(cell.error.find("injected crash"), std::string::npos);
      std::uint32_t vi = 0;
      while (version_key(kAllVersions[vi]) != cell.version) ++vi;
      EXPECT_EQ(cell.fault_seed,
                fault::task_seed(fopt.fault.seed, cell.workload, vi,
                                 max_retries));
    } else {
      EXPECT_EQ(cell.status, fault::CellOutcome::Status::Ok);
    }
  }

  // Surviving cells carry the same numbers an unfaulted sweep produces
  // (TaskCrash perturbs nothing unless it kills the run).
  const auto clean = sweep_suite(m);
  ASSERT_EQ(rs.rows.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    bool row_failed = false;
    for (const auto& cell : rs.report.cells)
      if (cell.workload == clean[i].benchmark &&
          cell.status == fault::CellOutcome::Status::Failed)
        row_failed = true;
    if (row_failed) continue;
    SCOPED_TRACE(clean[i].benchmark);
    EXPECT_EQ(rs.rows[i].base_cycles, clean[i].base_cycles);
    for (const auto& [v, pct] : clean[i].pct)
      EXPECT_EQ(rs.rows[i].pct.at(v), pct) << to_string(v);
  }
}

TEST(ResilientDeterminism, RetrySeedsDifferPerAttempt) {
  const std::uint64_t a0 = fault::task_seed(9, "Swim", 4, 0);
  const std::uint64_t a1 = fault::task_seed(9, "Swim", 4, 1);
  EXPECT_NE(a0, a1) << "each retry must see a fresh fault stream";
}

TEST(ResilientDeterminism, WatchdogAloneQuarantinesEveryCell) {
  const auto& w = workloads::all_workloads().front();
  RunOptions opt;
  opt.watchdog_accesses = 50;  // far below any real run
  const ResilientSweep rs =
      sweep_resilient({&w, 1}, base_machine(), opt, {}, /*max_retries=*/0);
  ASSERT_EQ(rs.report.cells.size(), kAllVersions.size());
  for (const auto& cell : rs.report.cells) {
    EXPECT_EQ(cell.status, fault::CellOutcome::Status::Failed);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_NE(cell.error.find("watchdog"), std::string::npos);
  }
}

}  // namespace
}  // namespace selcache::core
