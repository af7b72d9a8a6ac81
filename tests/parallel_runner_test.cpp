// Determinism contract of the parallel experiment engine: a sweep fanned out
// over N worker threads must be bit-identical to the serial sweep — same
// cycles, same improvement percentages, same merged stat counters — for
// every hardware scheme.
#include <gtest/gtest.h>

#include "core/runner.h"

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

class SweepDeterminism : public ::testing::TestWithParam<hw::SchemeKind> {};

TEST_P(SweepDeterminism, ParallelSweepMatchesSerialBitForBit) {
  const MachineConfig m = base_machine();
  RunOptions opt;
  opt.scheme = GetParam();

  const auto serial = sweep_suite(m, opt);
  const auto parallel =
      sweep_suite(m, opt, ParallelSweepOptions{.num_threads = 4});
  expect_rows_identical(serial, parallel);
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
