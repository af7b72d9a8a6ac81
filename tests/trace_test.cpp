// Tests for the phase-resolved observability layer: epoch recorder
// semantics, event stamping, JSONL/CSV serialization, timeline post-pass,
// and the end-to-end determinism contract (traced parallel sweeps are
// bit-identical to serial ones, and tracing never perturbs results).
#include <gtest/gtest.h>

#include "core/runner.h"
#include "ir/builder.h"
#include "trace/jsonl.h"
#include "trace/recorder.h"
#include "trace/timeline.h"

namespace selcache::trace {
namespace {

// ---------------------------------------------------------------------------
// Recorder unit semantics.

TEST(Recorder, EmitsDeltaEncodedEpochsAtBoundaries) {
  Recording out;
  Recorder rec(out, 10);
  std::uint64_t live = 0;  // a component's cumulative counter
  rec.register_source([&live](StatSet& s) { s.add("x.count", live); });

  for (int i = 0; i < 25; ++i) {
    live += 2;
    rec.note_access();
  }
  rec.finish();  // flush the 5-access tail

  ASSERT_EQ(out.epochs.size(), 3u);
  EXPECT_EQ(out.epochs[0].index, 0u);
  EXPECT_EQ(out.epochs[0].start_access, 0u);
  EXPECT_EQ(out.epochs[0].end_access, 10u);
  EXPECT_EQ(out.epochs[1].start_access, 10u);
  EXPECT_EQ(out.epochs[1].end_access, 20u);
  EXPECT_EQ(out.epochs[2].end_access, 25u);  // partial tail epoch
  // Deltas are per-interval, not cumulative.
  EXPECT_EQ(out.epochs[0].deltas.get("x.count"), 20u);
  EXPECT_EQ(out.epochs[1].deltas.get("x.count"), 20u);
  EXPECT_EQ(out.epochs[2].deltas.get("x.count"), 10u);
}

TEST(Recorder, FinishWithoutTailEmitsNothingExtra) {
  Recording out;
  Recorder rec(out, 5);
  rec.register_source([](StatSet& s) { s.add("x", 1); });
  for (int i = 0; i < 10; ++i) rec.note_access();
  rec.finish();  // exactly on a boundary: no empty tail epoch
  EXPECT_EQ(out.epochs.size(), 2u);
}

TEST(Recorder, FinishOnEmptyRunEmitsOneEpoch) {
  // A zero-access run (empty workload) still produces one epoch so drains
  // and end-of-run counters have somewhere to land.
  Recording out;
  Recorder rec(out, 100);
  rec.finish();
  ASSERT_EQ(out.epochs.size(), 1u);
  EXPECT_EQ(out.epochs[0].end_access, 0u);
}

TEST(Recorder, StampsEventsWithAccessIndexAndEpoch) {
  Recording out;
  Recorder rec(out, 10);
  rec.event({.kind = EventKind::Toggle, .on = true});
  for (int i = 0; i < 13; ++i) rec.note_access();
  rec.event({.kind = EventKind::MatDecay});
  rec.finish();

  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].access, 0u);
  EXPECT_EQ(out.events[0].epoch, 0u);
  EXPECT_EQ(out.events[1].access, 13u);
  EXPECT_EQ(out.events[1].epoch, 1u);
}

// ---------------------------------------------------------------------------
// Timeline post-pass.

Recording synthetic_recording() {
  Recording rec;
  EpochRecord e0;
  e0.index = 0;
  e0.start_access = 0;
  e0.end_access = 100;
  e0.deltas.counter("l1d.hits") = 90;
  e0.deltas.counter("l1d.misses") = 10;
  e0.deltas.counter("l1d.fills") = 6;
  e0.deltas.counter("bypass.bypasses") = 4;
  EpochRecord e1;
  e1.index = 1;
  e1.start_access = 100;
  e1.end_access = 200;
  e1.deltas.counter("l1d.hits") = 100;
  rec.epochs = {e0, e1};
  rec.events = {
      {.kind = EventKind::Toggle, .access = 5, .epoch = 0, .region = 2,
       .on = true},
      {.kind = EventKind::Toggle, .access = 150, .epoch = 1, .region = 2,
       .on = false},
  };
  return rec;
}

TEST(Timeline, ThreadsRegionAndHwStateAcrossEpochs) {
  const std::vector<TimelineRow> rows = build_timeline(synthetic_recording());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].hw_on);
  EXPECT_EQ(rows[0].region, 2);
  EXPECT_EQ(rows[0].toggles, 1u);
  EXPECT_DOUBLE_EQ(rows[0].l1d_miss_rate(), 0.1);
  EXPECT_DOUBLE_EQ(rows[0].bypass_fraction(), 0.4);
  // The OFF toggle in epoch 1 flips hw state; the last ON region sticks.
  EXPECT_FALSE(rows[1].hw_on);
  EXPECT_EQ(rows[1].region, 2);
  EXPECT_DOUBLE_EQ(rows[1].l1d_miss_rate(), 0.0);
}

TEST(Timeline, CsvQuotesWorkloadNamesContainingCommas) {
  const std::vector<TimelineRow> rows = build_timeline(synthetic_recording());
  const std::string csv = timeline_csv(rows, "TPC-D,Q3", "selective");
  // RFC-4180 quoting: the comma inside the name must not add a column.
  EXPECT_NE(csv.find("\"TPC-D,Q3\",selective,0,"), std::string::npos);
  const std::string header = timeline_csv_header();
  const auto cols = [](const std::string& line) {
    std::size_t n = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  EXPECT_EQ(cols(csv.substr(0, csv.find('\n'))),
            cols(header.substr(0, header.find('\n'))));
}

TEST(Jsonl, EmitsOneTaggedLinePerRecord) {
  const Recording rec = synthetic_recording();
  const SimTag tag{.workload = "demo", .version = "selective"};
  const std::string ev = events_jsonl(rec, tag);
  const std::string me = metrics_jsonl(rec, tag);
  const auto lines = [](const std::string& s) {
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
  };
  EXPECT_EQ(lines(ev), rec.events.size());
  EXPECT_EQ(lines(me), rec.epochs.size());
  EXPECT_NE(ev.find("\"workload\":\"demo\""), std::string::npos);
  EXPECT_NE(ev.find("\"kind\":\"toggle\""), std::string::npos);
  EXPECT_NE(ev.find("\"region\":2"), std::string::npos);
  EXPECT_NE(me.find("\"l1d.misses\":10"), std::string::npos);
}

TEST(Jsonl, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny"), "x\\ny");
}

// ---------------------------------------------------------------------------
// End-to-end: traced simulations.

ir::Program mixed_demo() {
  ir::ProgramBuilder b("demo");
  const auto A = b.array("A", {96, 96});
  const auto H = b.chase_pool("H", 2048, 32);
  b.begin_loop("t", 0, 2);
  {
    const auto j = b.begin_loop("j", 0, 96);
    const auto i = b.begin_loop("i", 0, 96);
    b.stmt({ir::load_array(A, {b.sub(i), b.sub(j)}),
            ir::store_array(A, {b.sub(i), b.sub(j)})},
           2);
    b.end_loop();
    b.end_loop();
  }
  b.begin_loop("w", 0, 3000);
  b.stmt({ir::chase(H)}, 2);
  b.end_loop();
  b.end_loop();
  return b.finish();
}

workloads::WorkloadInfo demo_info() {
  return {"demo", "synthetic", workloads::Category::Mixed, mixed_demo,
          1.0, 1.0, 1.0};
}

TEST(TracedRun, EpochDeltasSumToFinalAggregates) {
  core::RunOptions opt;
  opt.trace_epoch = 5000;
  Recording rec;
  const core::RunResult r = core::run_version(
      demo_info(), core::base_machine(), core::Version::Selective, opt, &rec);

  ASSERT_GT(rec.epochs.size(), 1u);  // the demo spans multiple epochs
  // Delta encoding must partition every cumulative counter exactly: the
  // per-epoch movements of each key sum back to the end-of-run aggregate.
  StatSet summed;
  for (const EpochRecord& er : rec.epochs)
    for (const auto& [key, value] : er.deltas.all())
      summed.counter(key) += value;
  for (const auto& [key, value] : r.stats.all())
    EXPECT_EQ(summed.get(key), value) << "counter " << key;
}

TEST(TracedRun, SelectiveToggleEventsCarryRegionProvenance) {
  core::RunOptions opt;
  opt.trace_epoch = 5000;
  Recording rec;
  core::run_version(demo_info(), core::base_machine(),
                    core::Version::Selective, opt, &rec);

  // First event is the synthetic force that documents the initial OFF state.
  ASSERT_FALSE(rec.events.empty());
  EXPECT_EQ(rec.events[0].kind, EventKind::Toggle);
  EXPECT_EQ(rec.events[0].access, 0u);
  EXPECT_FALSE(rec.events[0].on);
  EXPECT_EQ(rec.events[0].region, -1);
  // Instruction toggles inserted by region detection carry real region ids.
  bool saw_region_on = false;
  for (const Event& e : rec.events)
    if (e.kind == EventKind::Toggle && e.on && e.region >= 0)
      saw_region_on = true;
  EXPECT_TRUE(saw_region_on);
}

TEST(TracedRun, TracingDoesNotPerturbSimulationResults) {
  const core::RunOptions opt;
  const core::RunResult plain = core::run_version(
      demo_info(), core::base_machine(), core::Version::Combined, opt);
  Recording rec;
  const core::RunResult traced =
      core::run_version(demo_info(), core::base_machine(),
                        core::Version::Combined, opt, &rec);
  EXPECT_EQ(plain.cycles, traced.cycles);
  EXPECT_EQ(plain.instructions, traced.instructions);
  EXPECT_EQ(plain.toggles, traced.toggles);
  EXPECT_EQ(plain.stats.all(), traced.stats.all());
  EXPECT_FALSE(rec.epochs.empty());
}

TEST(TracedRun, ParallelTracesBitIdenticalToSerial) {
  core::RunOptions opt;
  opt.trace_epoch = 5000;
  std::vector<core::TraceCapture> serial, parallel;
  core::improvements_for(demo_info(), core::base_machine(), opt,
                         {.num_threads = 1}, &serial);
  core::improvements_for(demo_info(), core::base_machine(), opt,
                         {.num_threads = 4}, &parallel);

  ASSERT_EQ(serial.size(), core::kAllVersions.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].workload, parallel[i].workload);
    EXPECT_EQ(serial[i].version, parallel[i].version);
    EXPECT_EQ(serial[i].recording, parallel[i].recording) << "capture " << i;
  }
  // And the serialized form (what --trace-dir writes) is byte-identical.
  std::string a, b;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SimTag tag{serial[i].workload,
                     core::to_string(serial[i].version)};
    a += events_jsonl(serial[i].recording, tag) +
         metrics_jsonl(serial[i].recording, tag);
    b += events_jsonl(parallel[i].recording, tag) +
         metrics_jsonl(parallel[i].recording, tag);
  }
  EXPECT_EQ(a, b);
}

/// A traced sweep rides like a plain one: one interpretation drives the
/// Simulation of every version it serves, each recording its own phase
/// trace, and a copied version takes its source's recording. Every capture
/// must equal a solo traced run_version of its version, as a Recording and
/// as the JSONL that --trace-dir writes. Perl's optimizer changes nothing:
/// at 1 thread one interpretation of its marked code drives Base, Pure
/// Hardware and Selective and the other two copy, and at 4 threads that
/// ride splits. TPC-D,Q6's marked code drives Pure Software, Combined and
/// Selective.
TEST(TracedSweep, RideRecordingsEqualSoloRecordings) {
  const core::MachineConfig m = core::base_machine();
  const workloads::WorkloadInfo& perl = workloads::workload("Perl");
  EXPECT_EQ(core::plan_sweep({&perl, 1}, {}, {.num_threads = 1}).copies, 2u);
  for (const hw::SchemeKind scheme :
       {hw::SchemeKind::Bypass, hw::SchemeKind::Victim}) {
    core::RunOptions opt;
    opt.scheme = scheme;
    opt.trace_epoch = 2000;
    for (const char* name : {"Perl", "TPC-D,Q6"}) {
      const workloads::WorkloadInfo& w = workloads::workload(name);
      std::vector<Recording> solo(core::kAllVersions.size());
      for (std::size_t i = 0; i < solo.size(); ++i) {
        core::run_version(w, m, core::kAllVersions[i], opt, &solo[i]);
        ASSERT_GT(solo[i].epochs.size(), 2u);
      }
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(name) + " " + hw::to_string(scheme) +
                     " threads=" + std::to_string(threads));
        std::vector<core::TraceCapture> traces;
        core::improvements_for(w, m, opt, {.num_threads = threads}, &traces);
        ASSERT_EQ(traces.size(), solo.size());
        for (std::size_t i = 0; i < traces.size(); ++i) {
          const core::Version v = core::kAllVersions[i];
          EXPECT_EQ(traces[i].workload, w.name);
          EXPECT_EQ(traces[i].version, v);
          EXPECT_EQ(traces[i].recording, solo[i]) << core::to_string(v);
          const SimTag tag{w.name, core::version_key(v)};
          EXPECT_EQ(events_jsonl(traces[i].recording, tag),
                    events_jsonl(solo[i], tag));
          EXPECT_EQ(metrics_jsonl(traces[i].recording, tag),
                    metrics_jsonl(solo[i], tag));
        }
      }
    }
  }
}

}  // namespace
}  // namespace selcache::trace
