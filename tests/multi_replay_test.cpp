// The batched multi-config replay contract: decoding a tape ONCE and
// fanning its batches out to N machine configurations (multi_replay_tape /
// sweep_axis_shared_decode) is bit-identical to N separate per-config
// replays — same RunResults and merged StatSets, same phase-trace JSONL,
// same persistent-store fingerprints — at any thread count, any batch
// size, and under the forced-scalar kernels.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "core/runner.h"
#include "memsys/probe_kernels.h"
#include "store/store.h"
#include "tape/cache.h"
#include "trace/jsonl.h"

namespace selcache::core {
namespace {

std::vector<MachineConfig> axis_machines() {
  return {base_machine(), higher_mem_latency(), larger_l2(),
          higher_l1_assoc()};
}

void expect_results_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.conflict_share, b.conflict_share);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.stats.all(), b.stats.all());
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

/// The headline criterion: every cell of the 13x5 matrix, fanned across a
/// 4-machine axis with one decode, matches per-config replay bit for bit
/// at --threads 1, 4, and 8.
TEST(MultiReplay, FullMatrixMatchesPerConfigReplayAtEveryThreadCount) {
  const std::vector<MachineConfig> machines = axis_machines();
  const RunOptions opt;
  for (const auto& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    for (Version v : kAllVersions) {
      SCOPED_TRACE(to_string(v));
      const tape::Tape t = record_tape(w, base_machine(), v, opt);
      std::vector<RunResult> solo;
      for (const MachineConfig& m : machines)
        solo.push_back(replay_tape(t, m, v, opt));
      for (const unsigned threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::vector<RunResult> fanned = multi_replay_tape(
            t, machines, v, opt,
            ParallelSweepOptions{.num_threads = threads});
        ASSERT_EQ(fanned.size(), machines.size());
        for (std::size_t i = 0; i < machines.size(); ++i)
          expect_results_identical(solo[i], fanned[i]);
      }
    }
  }
}

/// Batch size must be invisible in the results: a tiny batch (heavy
/// fan-out traffic, partial final batch) and a huge one (a single batch
/// covering the whole tape) both reproduce the per-config replay.
TEST(MultiReplay, BatchSizeNeverChangesResults) {
  const auto& w = workloads::all_workloads().front();
  const std::vector<MachineConfig> machines = axis_machines();
  const tape::Tape t = record_tape(w, base_machine(), Version::Selective);

  std::vector<RunResult> solo;
  for (const MachineConfig& m : machines)
    solo.push_back(replay_tape(t, m, Version::Selective));

  for (const std::uint32_t batch : {1u, 7u, 512u, 1u << 22}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    RunOptions opt;
    opt.batch = batch;
    const std::vector<RunResult> fanned =
        multi_replay_tape(t, machines, Version::Selective, opt,
                          ParallelSweepOptions{.num_threads = 4});
    for (std::size_t i = 0; i < machines.size(); ++i)
      expect_results_identical(solo[i], fanned[i]);
  }
}

/// The trace layer rides along: a traced fan-out records, per machine, the
/// exact epochs and events of a solo traced replay — compared both as
/// structures and as the serialized JSONL bytes the CLI emits.
TEST(MultiReplay, TracedFanOutMatchesSoloTraceJsonl) {
  const auto& w = workloads::all_workloads().front();
  const std::vector<MachineConfig> machines = axis_machines();
  RunOptions opt;
  opt.trace_epoch = 2000;  // several epochs per run
  const tape::Tape t = record_tape(w, base_machine(), Version::Selective, opt);

  std::vector<trace::Recording> solo(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i)
    (void)replay_tape(t, machines[i], Version::Selective, opt, &solo[i]);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<trace::Recording> fanned(machines.size());
    std::vector<trace::Recording*> sinks;
    for (auto& r : fanned) sinks.push_back(&r);
    (void)multi_replay_tape(t, machines, Version::Selective, opt,
                            ParallelSweepOptions{.num_threads = threads},
                            &sinks);
    for (std::size_t i = 0; i < machines.size(); ++i) {
      SCOPED_TRACE("machine " + std::to_string(i));
      ASSERT_FALSE(fanned[i].epochs.empty());
      EXPECT_EQ(solo[i], fanned[i]);
      const trace::SimTag tag{.workload = w.name, .version = "selective"};
      EXPECT_EQ(trace::events_jsonl(solo[i], tag),
                trace::events_jsonl(fanned[i], tag));
      EXPECT_EQ(trace::metrics_jsonl(solo[i], tag),
                trace::metrics_jsonl(fanned[i], tag));
    }
  }
}

/// Forcing the scalar kernels (the --no-simd path / SELCACHE_NO_SIMD lane)
/// must leave every fan-out result byte-identical to the vectorized run.
TEST(MultiReplay, ForcedScalarKernelsProduceIdenticalResults) {
  const auto& w = workloads::all_workloads()[workloads::all_workloads().size() / 2];
  const std::vector<MachineConfig> machines = axis_machines();
  const tape::Tape t = record_tape(w, base_machine(), Version::Combined);

  const std::vector<RunResult> vectored = multi_replay_tape(
      t, machines, Version::Combined, RunOptions{},
      ParallelSweepOptions{.num_threads = 4});

  memsys::kernels::force_scalar(true);
  const std::vector<RunResult> scalar = multi_replay_tape(
      t, machines, Version::Combined, RunOptions{},
      ParallelSweepOptions{.num_threads = 4});
  memsys::kernels::force_scalar(false);

  ASSERT_EQ(vectored.size(), scalar.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    SCOPED_TRACE("machine " + std::to_string(i));
    expect_results_identical(vectored[i], scalar[i]);
  }
}

/// Only points that differ in nothing but memory latency may share one
/// structural pass. An axis that mixes latency-only points with points one
/// other timing parameter away — the L2 hit time, the DTLB walk, I-fetch
/// modeling — must still replay exactly like every point on its own, so a
/// grouping rule that is too loose fails here.
TEST(MultiReplay, GroupingSeparatesPointsBeyondMemoryLatency) {
  const auto at_latency = [](MachineConfig m, Cycle lat) {
    m.hierarchy.mem.access_latency = lat;
    return m;
  };
  MachineConfig slow_l2 = base_machine();
  slow_l2.hierarchy.l2.latency = 20;
  MachineConfig slow_walk = base_machine();
  slow_walk.hierarchy.dtlb.miss_penalty = 60;
  MachineConfig no_ifetch = base_machine();
  no_ifetch.cpu.model_ifetch = false;
  const std::vector<MachineConfig> machines = {
      at_latency(base_machine(), 100), at_latency(slow_l2, 100),
      at_latency(base_machine(), 300), at_latency(slow_walk, 100),
      at_latency(no_ifetch, 150),      at_latency(slow_l2, 300),
      at_latency(no_ifetch, 100),      at_latency(base_machine(), 150),
      at_latency(slow_walk, 200)};

  for (const char* name : {"Perl", "TPC-C"}) {
    SCOPED_TRACE(name);
    const auto& w = workloads::workload(name);
    for (Version v : kAllVersions) {
      SCOPED_TRACE(to_string(v));
      const tape::Tape t = record_tape(w, base_machine(), v);
      const std::vector<RunResult> grouped =
          multi_replay_tape(t, machines, v, RunOptions{},
                            ParallelSweepOptions{.num_threads = 4});
      ASSERT_EQ(grouped.size(), machines.size());
      for (std::size_t i = 0; i < machines.size(); ++i) {
        SCOPED_TRACE("machine " + std::to_string(i));
        expect_results_identical(replay_tape(t, machines[i], v), grouped[i]);
      }
    }
  }
}

/// The shared-decode axis engine is the sweep-level wrapper: rows for each
/// machine point must equal the per-point sweep_suite rows — and the
/// result-store cells it persists must carry the exact same fingerprinted
/// payloads, so a store warmed by either engine serves the other.
TEST(MultiReplay, SharedDecodeAxisMatchesPerPointSweepAndStoreCells) {
  const std::vector<MachineConfig> machines = axis_machines();

  // Per-point reference: one reuse_tape sweep_suite per machine, writing
  // into its own store directory.
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string solo_dir = (tmp / "selcache_mr_solo_store").string();
  const std::string axis_dir = (tmp / "selcache_mr_axis_store").string();
  std::filesystem::remove_all(solo_dir);
  std::filesystem::remove_all(axis_dir);

  tape::TapeCache solo_cache;
  store::ResultStore solo_store(solo_dir);
  RunOptions solo_opt;
  solo_opt.reuse_tape = true;
  solo_opt.tape_cache = &solo_cache;
  solo_opt.result_store = &solo_store;
  std::vector<std::vector<ImprovementRow>> per_point;
  for (const MachineConfig& m : machines)
    per_point.push_back(sweep_suite(m, solo_opt));

  for (const unsigned threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::filesystem::remove_all(axis_dir);
    tape::TapeCache axis_cache;
    store::ResultStore axis_store(axis_dir);
    RunOptions axis_opt;
    axis_opt.reuse_tape = true;
    axis_opt.tape_cache = &axis_cache;
    axis_opt.result_store = &axis_store;
    const auto shared = sweep_axis_shared_decode(
        machines, axis_opt, ParallelSweepOptions{.num_threads = threads});
    ASSERT_EQ(shared.size(), machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
      SCOPED_TRACE("machine " + std::to_string(i));
      expect_rows_identical(per_point[i], shared[i]);
    }

    // Store equivalence: same cell keys, and for every key the shared-
    // decode engine stored a payload the per-point store reproduces.
    for (const MachineConfig& m : machines) {
      for (const auto& w : workloads::all_workloads()) {
        for (Version v : kAllVersions) {
          const std::string key = store_key(w, m, v, axis_opt);
          const auto a = axis_store.load(key);
          const auto b = solo_store.load(key);
          ASSERT_TRUE(a.has_value()) << key;
          ASSERT_TRUE(b.has_value()) << key;
          EXPECT_EQ(a->cycles, b->cycles) << key;
          EXPECT_EQ(a->instructions, b->instructions) << key;
          EXPECT_EQ(a->toggles, b->toggles) << key;
          EXPECT_EQ(a->stats.all(), b->stats.all()) << key;
        }
      }
    }
  }

  std::filesystem::remove_all(solo_dir);
  std::filesystem::remove_all(axis_dir);
}

}  // namespace
}  // namespace selcache::core
