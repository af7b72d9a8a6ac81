// The trace-tape contract: replaying a recorded tape is bit-identical to
// interpreting the IR — same cycles, same merged stat counters — for every
// (workload, version) cell and for ANY machine point, including machines
// other than the one the tape was recorded on. Traced and fault-armed runs
// must bypass the tape path entirely and match the plain run, and the
// reuse_tape sweep stays deterministic at every thread count.
#include <gtest/gtest.h>

#include "core/runner.h"
#include "tape/cache.h"
#include "trace/jsonl.h"

namespace selcache::core {
namespace {

void expect_rows_identical(const std::vector<ImprovementRow>& a,
                           const std::vector<ImprovementRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].benchmark);
    EXPECT_EQ(a[i].benchmark, b[i].benchmark);
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].base_cycles, b[i].base_cycles);
    ASSERT_EQ(a[i].pct.size(), b[i].pct.size());
    for (const auto& [v, pct] : a[i].pct) {
      ASSERT_TRUE(b[i].pct.count(v)) << to_string(v);
      EXPECT_EQ(pct, b[i].pct.at(v)) << to_string(v);
    }
    EXPECT_EQ(a[i].accesses, b[i].accesses);
    // Bit-identical includes every merged simulator counter.
    EXPECT_EQ(a[i].stats.all(), b[i].stats.all());
  }
}

void expect_results_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.conflict_share, b.conflict_share);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.stats.all(), b.stats.all());
}

/// The headline criterion: across the full 13x5 matrix, the recording pass
/// and the replaying pass of a reuse_tape sweep are both bit-identical to
/// the plain interpreted sweep.
TEST(TapeEquivalence, FullMatrixRecordAndReplayMatchInterpret) {
  const MachineConfig m = base_machine();
  RunOptions plain;
  const auto interpreted = sweep_suite(m, plain);

  tape::TapeCache cache;
  RunOptions taped = plain;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;

  // First pass: every cell records (cache is empty). Results come from the
  // instrumented interpretation, so they must match exactly.
  const auto recorded = sweep_suite(m, taped);
  expect_rows_identical(interpreted, recorded);
  EXPECT_EQ(cache.size(), interpreted.size() * kAllVersions.size());

  // Second pass: every cell replays from the cache. Same machine, and the
  // replay must reproduce the interpreted run bit for bit.
  const auto replayed = sweep_suite(m, taped);
  expect_rows_identical(interpreted, replayed);
  EXPECT_EQ(cache.size(), interpreted.size() * kAllVersions.size())
      << "replay pass must not record new tapes";
}

/// Machine invariance — the property record-once/replay-many rests on: a
/// tape recorded on the BASE machine replays bit-identically on machines
/// with different memory latency, cache sizes, associativity, and I-cache
/// block-expansion behavior.
TEST(TapeEquivalence, TapeRecordedOnBaseReplaysOnEveryOtherMachine) {
  tape::TapeCache cache;
  RunOptions taped;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;

  const auto& workloads = workloads::all_workloads();
  // Three workloads spanning the pointer/index/array categories keep this
  // cross-machine pass affordable; the full matrix is covered on the base
  // machine above.
  const workloads::WorkloadInfo* picks[] = {&workloads.front(),
                                            &workloads[workloads.size() / 2],
                                            &workloads.back()};

  // Populate the cache by recording every picked cell on the base machine.
  for (const auto* w : picks)
    for (Version v : kAllVersions) (void)run_version(*w, base_machine(), v, taped);

  const MachineConfig machines[] = {higher_mem_latency(), larger_l2(),
                                    larger_l1(), higher_l2_assoc(),
                                    higher_l1_assoc()};
  for (const auto& m : machines) {
    for (const auto* w : picks) {
      SCOPED_TRACE(w->name);
      for (Version v : kAllVersions) {
        SCOPED_TRACE(to_string(v));
        const RunResult interp = run_version(*w, m, v, RunOptions{});
        const RunResult replay = run_version(*w, m, v, taped);
        expect_results_identical(interp, replay);
      }
    }
  }
  EXPECT_EQ(cache.size(), std::size(picks) * kAllVersions.size())
      << "cross-machine replays must reuse the base-machine tapes";
}

/// Tracing has one home, the interpreted run: a traced run with reuse_tape
/// interprets, records the same phases (as structures and as the JSONL
/// bytes the CLI writes) as a traced run without it, and neither reads nor
/// fills the tape cache.
TEST(TapeEquivalence, TracedRunInterpretsAndLeavesTheCacheAlone) {
  const MachineConfig m = base_machine();
  const auto& w = workloads::all_workloads().front();
  RunOptions opt;
  opt.trace_epoch = 2000;  // small epochs so several snapshots land

  trace::Recording interp;
  const RunResult plain = run_version(w, m, Version::Selective, opt, &interp);
  ASSERT_FALSE(interp.epochs.empty());

  tape::TapeCache cache;
  RunOptions taped = opt;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;
  trace::Recording traced;
  const RunResult r = run_version(w, m, Version::Selective, taped, &traced);
  expect_results_identical(plain, r);
  EXPECT_EQ(interp, traced);
  const trace::SimTag tag{.workload = w.name, .version = "selective"};
  EXPECT_EQ(trace::events_jsonl(interp, tag), trace::events_jsonl(traced, tag));
  EXPECT_EQ(trace::metrics_jsonl(interp, tag),
            trace::metrics_jsonl(traced, tag));
  EXPECT_EQ(cache.size(), 0u) << "a traced run must not record a tape";
}

/// A tape lives only in the caller's cache: reuse_tape without one is a
/// precondition failure.
TEST(TapeEquivalence, ReuseTapeWithoutACacheThrows) {
  RunOptions taped;
  taped.reuse_tape = true;
  EXPECT_THROW((void)run_version(workloads::all_workloads().front(),
                                 base_machine(), Version::Base, taped),
               std::logic_error);
}

/// Fault-armed runs never touch the tape machinery: they fall back to plain
/// interpretation (bit-identical to a run without reuse_tape) and leave the
/// cache untouched, so a perturbed stream can never be recorded or replayed.
TEST(TapeEquivalence, FaultArmedRunsFallBackToInterpretation) {
  const MachineConfig m = base_machine();
  const auto& w = workloads::all_workloads().front();

  RunOptions faulted;
  faulted.fault.kind = fault::FaultKind::ToggleDrop;
  faulted.fault.rate = 0.5;
  faulted.fault.seed = 99;
  const RunResult plain = run_version(w, m, Version::Selective, faulted);

  tape::TapeCache cache;
  RunOptions taped = faulted;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;
  const RunResult fallback = run_version(w, m, Version::Selective, taped);
  expect_results_identical(plain, fallback);
  EXPECT_EQ(cache.size(), 0u) << "fault-armed runs must not record tapes";

  // Same rule for an armed watchdog.
  RunOptions watched;
  watched.watchdog_accesses = 1'000'000'000;  // never fires, but armed
  watched.reuse_tape = true;
  watched.tape_cache = &cache;
  (void)run_version(w, m, Version::Base, watched);
  EXPECT_EQ(cache.size(), 0u);

  // record_tape itself refuses a fault campaign outright.
  EXPECT_THROW((void)record_tape(w, m, Version::Selective, faulted),
               std::logic_error);
}

/// The determinism contract holds through the tape path: a parallel
/// reuse_tape sweep (workers racing on the once-per-key claims) is
/// bit-identical to the serial reuse_tape sweep and to plain interpretation.
TEST(TapeEquivalence, ParallelReuseTapeSweepIsBitIdentical) {
  const MachineConfig m = base_machine();
  const auto interpreted = sweep_suite(m, RunOptions{});

  tape::TapeCache cache;
  RunOptions taped;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;
  const auto parallel_recorded =
      sweep_suite(m, taped, ParallelSweepOptions{.num_threads = 4});
  expect_rows_identical(interpreted, parallel_recorded);

  const auto parallel_replayed =
      sweep_suite(m, taped, ParallelSweepOptions{.num_threads = 4});
  expect_rows_identical(interpreted, parallel_replayed);
}

/// tape_key separates streams that differ in anything the recording depends
/// on (seed, optimization settings) and ignores what it does not (machine
/// is absent by design; the scheme only affects the hierarchy's response).
TEST(TapeEquivalence, TapeKeyTracksStreamInputsOnly) {
  const auto& w = workloads::all_workloads().front();
  const RunOptions base_opt;

  RunOptions other_seed = base_opt;
  other_seed.data_seed ^= 1;
  RunOptions other_tile = base_opt;
  other_tile.optimize.tiling.tile += 1;
  RunOptions other_scheme = base_opt;
  other_scheme.scheme = hw::SchemeKind::Victim;

  const std::string k = tape_key(w, Version::Selective, base_opt);
  EXPECT_NE(k, tape_key(w, Version::Base, base_opt));
  EXPECT_NE(k, tape_key(w, Version::Selective, other_seed));
  EXPECT_NE(k, tape_key(w, Version::Selective, other_tile));
  EXPECT_EQ(k, tape_key(w, Version::Selective, other_scheme))
      << "machine/scheme must not fragment the tape cache";
}

/// record_tape's stats line up with the simulated hierarchy: every recorded
/// load/store is one L1D demand access on a Base run (no scheme routing).
TEST(TapeEquivalence, RecordedTapeStatsMatchTheSimulation) {
  const MachineConfig m = base_machine();
  const auto& w = workloads::all_workloads().front();
  RunResult r;
  const tape::Tape t = record_tape(w, m, Version::Base, RunOptions{}, &r);
  EXPECT_GT(t.stats.data_accesses(), 0u);
  EXPECT_EQ(t.stats.data_accesses(),
            r.stats.get("l1d.hits") + r.stats.get("l1d.misses"));
  EXPECT_GT(t.stats.ifetch_batches, 0u);
  EXPECT_GT(t.stats.branches, 0u);
  EXPECT_LT(t.bytes_per_access(), 8.0) << "density regression";

  // And replaying that exact tape object reproduces the recording run.
  const RunResult replay = replay_tape(t, m, Version::Base);
  expect_results_identical(r, replay);
}

}  // namespace
}  // namespace selcache::core
