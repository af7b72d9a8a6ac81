// Run-ledger tests: journal framing (escaping, torn tails, checksum
// corruption), run identity (RunSpec fingerprint round-trip + tamper
// rejection), and the checkpoint engine itself — fresh runs match the
// plain sweep engine, suspension leaves a resumable journal, and resume
// trusts `done` records only when the stored result round-trips with a
// matching fingerprint.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "run/checkpoint.h"
#include "run/journal.h"
#include "run/spec.h"
#include "store/store.h"
#include "workloads/registry.h"

namespace selcache::run {
namespace {

namespace fs = std::filesystem;

// -- journal framing ---------------------------------------------------------

TEST(Journal, RecordEncodeDecodeRoundTrip) {
  JournalRecord rec("started");
  rec.add("cell", "TPC-D,Q6/selective").add("attempt", std::uint64_t{2});
  const std::string payload = encode_record(rec);
  JournalRecord back;
  ASSERT_TRUE(decode_record(payload, &back));
  EXPECT_EQ(back.type, "started");
  ASSERT_EQ(back.fields.size(), 2u);
  EXPECT_EQ(back.get("cell"), "TPC-D,Q6/selective");
  EXPECT_EQ(back.get_u64("attempt"), 2u);
}

TEST(Journal, EscapingCoversEveryFramingByte) {
  // The five escaped bytes — %, TAB, LF, CR, '=' — in both keys and values,
  // plus a value that looks like an escape sequence itself.
  JournalRecord rec("failed");
  rec.add("rea=son", "a\tb\nc\rd%e=f");
  rec.add("pct", "100%25");  // literal "%25" must survive, not decode twice
  JournalRecord back;
  ASSERT_TRUE(decode_record(encode_record(rec), &back));
  EXPECT_EQ(back.get("rea=son"), "a\tb\nc\rd%e=f");
  EXPECT_EQ(back.get("pct"), "100%25");
}

TEST(Journal, DecodeRejectsMalformedPayloads) {
  JournalRecord out;
  EXPECT_FALSE(decode_record("", &out));
  EXPECT_FALSE(decode_record("type\tno-equals-field", &out));
}

TEST(Journal, MissingFileReadsAsEmpty) {
  const auto r = read_journal("/nonexistent/selcache/journal.wal");
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.corrupt);
}

class JournalFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("selcache_journal_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".wal"))
                .string();
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  void append_n(int n) {
    JournalWriter w(path_, /*sync_each=*/false);
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < n; ++i) {
      JournalRecord rec("planned");
      rec.add("cell", "w/" + std::to_string(i));
      ASSERT_TRUE(w.append(rec));
    }
  }

  std::string path_;
};

TEST_F(JournalFileTest, AppendReadRoundTrip) {
  append_n(3);
  const auto r = read_journal(path_);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[2].get("cell"), "w/2");
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.corrupt);
}

TEST_F(JournalFileTest, TornTailIsDroppedNotFatal) {
  append_n(3);
  // Chop bytes off the final frame: every truncation point must drop only
  // the tail record and keep the first two intact.
  const auto full = fs::file_size(path_);
  for (std::uintmax_t cut = 1; cut < 12; ++cut) {
    fs::resize_file(path_, full - cut);
    const auto r = read_journal(path_);
    EXPECT_EQ(r.records.size(), 2u) << "cut=" << cut;
    EXPECT_TRUE(r.torn_tail) << "cut=" << cut;
    EXPECT_FALSE(r.corrupt) << "cut=" << cut;
    EXPECT_GT(r.bytes_dropped, 0u) << "cut=" << cut;
    fs::remove(path_);
    append_n(3);
  }
}

TEST_F(JournalFileTest, ChecksumCorruptionAtTailIsATornTail) {
  append_n(2);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xff');
  }
  const auto r = read_journal(path_);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_FALSE(r.corrupt);
}

TEST_F(JournalFileTest, MidFileCorruptionFlagsCorruptAndKeepsPrefix) {
  append_n(1);
  const auto first = fs::file_size(path_);
  {
    JournalWriter w(path_, false);
    JournalRecord rec("done");
    rec.add("cell", "w/9");
    ASSERT_TRUE(w.append(rec));
    ASSERT_TRUE(w.append(rec));
  }
  {
    // Smash a byte inside the SECOND record — corruption before the tail.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(first) + 14, std::ios::beg);
    f.put('\xee');
  }
  const auto r = read_journal(path_);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_TRUE(r.corrupt);
  EXPECT_GT(r.bytes_dropped, 0u);
}

TEST_F(JournalFileTest, WriterSurvivesReopenAndAppends) {
  append_n(2);
  append_n(1);  // second writer appends, never truncates
  EXPECT_EQ(read_journal(path_).records.size(), 3u);
}

// -- run identity ------------------------------------------------------------

RunSpec demo_spec() {
  RunSpec s;
  s.kind = "sweep";
  s.workload = "TPC-D,Q6";
  s.machine = "base";
  s.scheme = "bypass";
  s.machine_fp = core::machine_fingerprint(core::base_machine());
  s.stream_fp = core::stream_fingerprint({});
  return s;
}

TEST(RunSpec, IdIsStableAndSensitiveToInputs) {
  const RunSpec a = demo_spec();
  EXPECT_EQ(run_id(a), run_id(a)) << "id must be a pure function of the spec";
  EXPECT_EQ(run_id(a).size(), 16u);

  RunSpec b = a;
  b.workload = "Chaos";
  EXPECT_NE(run_id(a), run_id(b));
  RunSpec c = a;
  c.machine = "memlat";
  EXPECT_NE(run_id(a), run_id(c));
  RunSpec d = a;
  d.scheme = "victim";
  EXPECT_NE(run_id(a), run_id(d));
  RunSpec e = a;
  e.machine_fp ^= 1;
  EXPECT_NE(run_id(a), run_id(e));
}

TEST(RunSpec, OutputPathsAreNotIdentity) {
  // Where the CSV lands does not change what the run IS: a run dir moved to
  // a machine with different output paths must still resume.
  RunSpec a = demo_spec();
  RunSpec b = a;
  b.csv_out = "/tmp/other.csv";
  b.jsonl_out = "/tmp/other.jsonl";
  EXPECT_EQ(run_id(a), run_id(b));
}

TEST(RunSpec, RecordRoundTripAndTamperRejection) {
  const RunSpec a = demo_spec();
  const JournalRecord rec = to_record(a);
  const auto back = from_record(rec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(run_id(*back), run_id(a));
  EXPECT_EQ(back->workload, a.workload);
  EXPECT_EQ(back->kind, a.kind);

  // An edited header (workload swapped, id left stale) must be rejected —
  // this is the franken-run guard.
  JournalRecord tampered = rec;
  for (auto& [k, v] : tampered.fields)
    if (k == "workload") v = "Chaos";
  EXPECT_FALSE(from_record(tampered).has_value());

  JournalRecord wrong_type("planned");
  EXPECT_FALSE(from_record(wrong_type).has_value());
}

// -- checkpoint engine -------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("selcache_ckpt_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

void expect_rows_equal(const core::ImprovementRow& a,
                       const core::ImprovementRow& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.base_cycles, b.base_cycles);
  ASSERT_EQ(a.pct.size(), b.pct.size());
  for (const auto& [v, pct] : a.pct) {
    auto it = b.pct.find(v);
    ASSERT_NE(it, b.pct.end());
    EXPECT_EQ(pct, it->second) << core::version_key(v);
  }
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST_F(CheckpointTest, FreshCompleteRunMatchesPlainEngine) {
  const auto out = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.suspended);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.cells_done, out.cells.size());
  EXPECT_EQ(out.cells_quarantined, 0u);

  const auto& w = workloads::workload("TPC-D,Q6");
  const auto plain = core::improvements_for(w, core::base_machine(), {});
  expect_rows_equal(out.rows[0], plain);

  // The journal records the whole lifecycle and ends complete.
  const auto st = inspect_run(dir_);
  ASSERT_TRUE(st.error.empty()) << st.error;
  EXPECT_TRUE(st.complete);
  EXPECT_FALSE(st.suspended);
  EXPECT_EQ(st.id, out.id);
  for (const auto& c : st.cells) EXPECT_EQ(c.status, "done") << c.workload;
}

TEST_F(CheckpointTest, LedgerQuotesWorkloadNamesContainingCommas) {
  ASSERT_TRUE(run_checkpointed(dir_, demo_spec(), {}).error.empty());
  std::ifstream in(fs::path(dir_) / "cells.csv");
  std::string header, line;
  ASSERT_TRUE(std::getline(in, header));
  const auto cols = [](const std::string& l) {
    std::size_t n = 1;
    bool quoted = false;
    for (char c : l) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  // RFC-4180 quoting: the comma inside the name must not add a column.
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(line.rfind("\"TPC-D,Q6\",", 0), 0u) << line;
    EXPECT_EQ(cols(line), cols(header)) << line;
  }
  EXPECT_EQ(rows, core::kAllVersions.size());
}

/// A pre-tripped stop token suspends before any cell starts: each cell sees
/// the stop and returns without journaling, at any thread count, so every
/// cell stays `planned` with no attempt. Resume with the token cleared
/// finishes and matches the plain engine.
void expect_pre_tripped_stop_starts_no_cell(const std::string& dir,
                                            unsigned threads) {
  std::atomic<int> stop{1};
  CheckpointOptions opts;
  opts.threads = threads;
  opts.stop = &stop;
  const auto out = run_checkpointed(dir, demo_spec(), opts);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.suspended);
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.cells_done, 0u);

  const auto st = inspect_run(dir);
  EXPECT_TRUE(st.suspended);
  EXPECT_FALSE(st.complete);
  ASSERT_EQ(st.cells.size(), core::kAllVersions.size());
  for (const auto& c : st.cells) {
    EXPECT_EQ(c.status, "planned") << c.version;
    EXPECT_EQ(c.attempts, 0u) << c.version;
  }

  stop.store(0);
  const auto res = resume_checkpointed(dir, opts);
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  ASSERT_EQ(res.rows.size(), 1u);
  const auto& w = workloads::workload("TPC-D,Q6");
  expect_rows_equal(res.rows[0],
                    core::improvements_for(w, core::base_machine(), {}));
}

TEST_F(CheckpointTest, PreTrippedStopTokenSuspendsBeforeAnyCell) {
  expect_pre_tripped_stop_starts_no_cell(dir_, 0);
}

TEST_F(CheckpointTest, PreTrippedStopTokenAtFourThreadsStartsNoCell) {
  expect_pre_tripped_stop_starts_no_cell(dir_, 4);
}

TEST_F(CheckpointTest, ResumeOfCompleteRunLoadsEverythingFromStore) {
  const auto first = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(first.complete);
  const auto again = resume_checkpointed(dir_, {});
  ASSERT_TRUE(again.error.empty()) << again.error;
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.cells_done, 0u) << "nothing should re-simulate";
  EXPECT_EQ(again.cells_from_store, first.cells.size());
  ASSERT_EQ(again.rows.size(), 1u);
  expect_rows_equal(again.rows[0], first.rows[0]);
}

TEST_F(CheckpointTest, TamperedStoreDegradesToReRunNotWrongOutput) {
  const auto first = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(first.complete);
  // Smash every stored cell: the journal still promises `done`, but the
  // store can no longer substantiate it — resume must re-simulate.
  for (const auto& e :
       fs::directory_iterator(fs::path(dir_) / "store" / "cells"))
    fs::resize_file(e.path(), 8);
  const auto res = resume_checkpointed(dir_, {});
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.cells_from_store, 0u);
  EXPECT_EQ(res.cells_done, first.cells.size());
  ASSERT_EQ(res.rows.size(), 1u);
  expect_rows_equal(res.rows[0], first.rows[0]);
}

/// A store entry that is well formed but differs from what the journal's
/// `done` fingerprint promised (here Selective's, rewritten with doubled
/// cycles as ResultStore::save would write it) is not served: resume
/// simulates the cell again and overwrites the entry.
TEST_F(CheckpointTest, RewrittenStoreCellIsResimulatedNotServed) {
  const auto first = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(first.complete);
  const std::string key =
      core::store_key(workloads::workload("TPC-D,Q6"), core::base_machine(),
                      core::Version::Selective, {});
  const std::string store_dir = (fs::path(dir_) / "store").string();
  std::optional<store::StoredResult> kept;
  {
    store::ResultStore s(store_dir);
    kept = s.load(key);
    ASSERT_TRUE(kept.has_value());
    store::StoredResult edited = *kept;
    edited.cycles *= 2;
    s.save(key, edited);
  }
  const auto res = resume_checkpointed(dir_, {});
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.cells_done, 1u);
  EXPECT_EQ(res.cells_from_store, 4u);
  ASSERT_EQ(res.rows.size(), 1u);
  expect_rows_equal(res.rows[0], first.rows[0]);
  const std::optional<store::StoredResult> healed =
      store::ResultStore(store_dir).load(key);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->cycles, kept->cycles);
}

/// Perl's optimizer changes nothing, so its Pure Software and Combined
/// copy Base's and Pure Hardware's results. At 1 thread one unit simulates
/// Base, Pure Hardware and Selective; at 4 threads the critical-path rule
/// makes that three units of one. Either way every cell, copies included,
/// is journaled done and the row is the plain engine's.
TEST_F(CheckpointTest, CopiesAreJournaledDone) {
  RunSpec spec = demo_spec();
  spec.workload = "Perl";
  const workloads::WorkloadInfo& w = workloads::workload("Perl");
  const core::ImprovementRow plain =
      core::improvements_for(w, core::base_machine(), {});
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::SweepPlan plan =
        core::plan_sweep({&w, 1}, {}, {.num_threads = threads});
    EXPECT_EQ(plan.interpretations, threads == 1 ? 1u : 3u);
    EXPECT_EQ(plan.copies, 2u);

    const std::string dir = dir_ + "_" + std::to_string(threads);
    fs::remove_all(dir);
    CheckpointOptions opts;
    opts.threads = threads;
    const auto out = run_checkpointed(dir, spec, opts);
    ASSERT_TRUE(out.error.empty()) << out.error;
    EXPECT_TRUE(out.complete);
    EXPECT_EQ(out.cells_done, core::kAllVersions.size());
    ASSERT_EQ(out.rows.size(), 1u);
    expect_rows_equal(out.rows[0], plain);

    const auto st = inspect_run(dir);
    ASSERT_TRUE(st.error.empty()) << st.error;
    EXPECT_TRUE(st.complete);
    ASSERT_EQ(st.cells.size(), core::kAllVersions.size());
    for (const auto& c : st.cells) EXPECT_EQ(c.status, "done") << c.version;
    fs::remove_all(dir);
  }
}

/// Journals from before this writer dropped its write-only fields carry
/// `attempt` on started, done and failed records and `seed` on started
/// ones. Readers ignore fields they do not know, so such a journal resumes:
/// its done cells are served from the store, the others simulated, and the
/// rows are the first run's. The records the resume appends carry neither
/// field.
TEST_F(CheckpointTest, RetiredAttemptAndSeedFieldsResumeToTheSameRows) {
  const auto first = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(first.complete);
  const std::string wal = (fs::path(dir_) / "journal.wal").string();
  const JournalReadResult kept = read_journal(wal);
  fs::remove(wal);
  std::size_t old_records = 0;
  {
    JournalWriter w(wal, /*sync_each=*/false);
    std::size_t done = 0;
    for (JournalRecord rec : kept.records) {
      if (rec.type == "complete") continue;
      if (rec.type == "started")
        rec.add("attempt", std::uint64_t{0}).add("seed", std::uint64_t{7});
      if (rec.type == "done") {
        if (++done > 3) continue;  // the rest stay started
        if (done == 3)             // ends failed, not quarantined
          rec = JournalRecord("failed")
                    .add("cell", rec.get("cell"))
                    .add("reason", "an earlier build's failure");
        rec.add("attempt", std::uint64_t{0});
      }
      ASSERT_TRUE(w.append(rec));
      ++old_records;
    }
  }
  const auto res = resume_checkpointed(dir_, {});
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.cells_from_store, 2u);
  EXPECT_EQ(res.cells_done, first.cells.size() - 2);
  ASSERT_EQ(res.rows.size(), 1u);
  expect_rows_equal(res.rows[0], first.rows[0]);
  const JournalReadResult after = read_journal(wal);
  ASSERT_GT(after.records.size(), old_records);
  for (std::size_t k = old_records; k < after.records.size(); ++k) {
    EXPECT_EQ(after.records[k].find("attempt"), nullptr)
        << after.records[k].type;
    EXPECT_EQ(after.records[k].find("seed"), nullptr) << after.records[k].type;
  }
  for (const auto& c : inspect_run(dir_).cells)
    EXPECT_EQ(c.status, "done") << c.version;
}

TEST_F(CheckpointTest, SpecMismatchIsRejected) {
  ASSERT_TRUE(run_checkpointed(dir_, demo_spec(), {}).error.empty());
  RunSpec other = demo_spec();
  other.workload = "Chaos";
  const auto out = run_checkpointed(dir_, other, {});
  EXPECT_FALSE(out.error.empty())
      << "a run dir must refuse a different spec";
}

/// A run directory written in journal format 1 (whose header still carried
/// reuse_tape) is refused by every entry point, naming both formats.
TEST_F(CheckpointTest, OldJournalFormatIsRefusedByName) {
  fs::create_directories(dir_);
  {
    JournalWriter j((fs::path(dir_) / "journal.wal").string());
    ASSERT_TRUE(j.append(JournalRecord("run")
                             .add("id", "0123456789abcdef")
                             .add("format", std::uint64_t{1})
                             .add("kind", "sweep")
                             .add("workload", "TPC-D,Q6")
                             .add("machine", "base")
                             .add("scheme", "bypass")
                             .add("reuse_tape", "0")
                             .add("csv_out", "")
                             .add("jsonl_out", "")
                             .add("machine_fp", std::uint64_t{1})
                             .add("stream_fp", std::uint64_t{2})));
  }
  const std::string want =
      "run directory uses journal format 1; this build reads format 2";
  EXPECT_EQ(resume_checkpointed(dir_, {}).error, want);
  EXPECT_EQ(inspect_run(dir_).error, want);
  EXPECT_EQ(run_checkpointed(dir_, demo_spec(), {}).error, want);
}

TEST_F(CheckpointTest, ResumeWithoutJournalIsAnError) {
  fs::create_directories(dir_);
  const auto out = resume_checkpointed(dir_, {});
  EXPECT_FALSE(out.error.empty());
  const auto st = inspect_run(dir_);
  EXPECT_FALSE(st.error.empty());
}

TEST_F(CheckpointTest, ParallelRunIsByteIdenticalToSerial) {
  const auto serial = run_checkpointed(dir_, demo_spec(), {});
  ASSERT_TRUE(serial.complete);
  const std::string dir2 = dir_ + "_par";
  fs::remove_all(dir2);
  CheckpointOptions opts;
  opts.threads = 4;
  const auto par = run_checkpointed(dir2, demo_spec(), opts);
  fs::remove_all(dir2);
  ASSERT_TRUE(par.complete);
  ASSERT_EQ(par.rows.size(), serial.rows.size());
  expect_rows_equal(par.rows[0], serial.rows[0]);
}

TEST_F(CheckpointTest, ExpiredRunDeadlineSuspendsResumably) {
  CheckpointOptions opts;
  opts.run_deadline_ms = 1;  // expires before the first cell finishes
  const auto out = run_checkpointed(dir_, demo_spec(), opts);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.suspended);
  EXPECT_FALSE(out.complete);

  const auto res = resume_checkpointed(dir_, {});
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  const auto& w = workloads::workload("TPC-D,Q6");
  expect_rows_equal(res.rows[0],
                    core::improvements_for(w, core::base_machine(), {}));
}

}  // namespace
}  // namespace selcache::run
