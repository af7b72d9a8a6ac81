// Persistent result store tests: entry round-trip, the trust contract
// (truncated / corrupted / mis-keyed entries are misses, never errors),
// read-only and gc behavior, tape persistence, and the runner integration
// (warm loads bit-identical to cold simulation; armed runs bypass).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/runner.h"
#include "ir/builder.h"
#include "store/store.h"
#include "tape/cache.h"

namespace selcache::store {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("selcache_store_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

StoredResult sample_result() {
  StoredResult r;
  r.cycles = 123456789;
  r.instructions = 987654321;
  r.l1_miss_rate = 0.0625;
  r.l2_miss_rate = 0.25;
  r.conflict_share = 0.5;
  r.toggles = 7;
  r.stats.add("l1d.hits", 1000);
  r.stats.add("l1d.misses", 64);
  r.stats.add("cpu.cycles", 123456789);
  return r;
}

void expect_equal(const StoredResult& a, const StoredResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.conflict_share, b.conflict_share);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.stats.all(), b.stats.all());
}

/// Path of the single .cell file in the store (fails the test if != 1).
std::string only_cell(const std::string& dir) {
  std::vector<std::string> cells;
  for (const auto& e : fs::directory_iterator(fs::path(dir) / "cells"))
    cells.push_back(e.path().string());
  EXPECT_EQ(cells.size(), 1u);
  return cells.empty() ? std::string() : cells.front();
}

TEST_F(StoreTest, RoundTripsResultWithFullStatSet) {
  ResultStore s(dir_);
  const StoredResult r = sample_result();
  s.save("cell/a", r);
  const auto back = s.load("cell/a");
  ASSERT_TRUE(back.has_value());
  expect_equal(*back, r);
  const auto c = s.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 0u);
}

TEST_F(StoreTest, AbsentKeyIsMiss) {
  ResultStore s(dir_);
  EXPECT_FALSE(s.load("never/written").has_value());
  const auto c = s.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.corrupt, 0u);
}

TEST_F(StoreTest, TruncatedEntryIsMissNotError) {
  ResultStore s(dir_);
  s.save("cell/a", sample_result());
  const std::string path = only_cell(dir_);
  // Truncate at every prefix length: header cut, payload cut, checksum cut.
  std::ifstream in(path, std::ios::binary);
  std::string whole((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{12},
                           whole.size() / 2, whole.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(whole.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(s.load("cell/a").has_value()) << "kept " << keep;
  }
  EXPECT_GE(s.counters().corrupt, 5u);
  // A rewrite heals the entry.
  s.save("cell/a", sample_result());
  EXPECT_TRUE(s.load("cell/a").has_value());
}

TEST_F(StoreTest, BitFlippedEntryIsMiss) {
  ResultStore s(dir_);
  s.save("cell/a", sample_result());
  const std::string path = only_cell(dir_);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(fs::file_size(path)) / 2);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  EXPECT_FALSE(s.load("cell/a").has_value());
  EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST_F(StoreTest, FilenameCollisionDegradesToMiss) {
  // Force the "collision" by copying key A's file onto key B's path: the
  // embedded key no longer matches, so B must miss instead of serving A's
  // result.
  ResultStore s(dir_);
  s.save("cell/a", sample_result());
  const std::string a_path = only_cell(dir_);
  s.save("cell/b", sample_result());
  // Find b's path (the one that is not a_path) and clobber it with a's file.
  std::string b_path;
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "cells"))
    if (e.path().string() != a_path) b_path = e.path().string();
  ASSERT_FALSE(b_path.empty());
  fs::copy_file(a_path, b_path, fs::copy_options::overwrite_existing);
  EXPECT_TRUE(s.load("cell/a").has_value());
  EXPECT_FALSE(s.load("cell/b").has_value());
  EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST_F(StoreTest, ReadOnlyServesHitsButNeverWrites) {
  {
    ResultStore w(dir_);
    w.save("cell/a", sample_result());
  }
  ResultStore ro(dir_, ResultStore::Options{.read_only = true});
  EXPECT_TRUE(ro.read_only());
  EXPECT_TRUE(ro.load("cell/a").has_value());
  ro.save("cell/b", sample_result());
  EXPECT_EQ(ro.counters().writes, 0u);
  EXPECT_FALSE(ro.load("cell/b").has_value());
  EXPECT_EQ(ro.entries().size(), 1u);
}

TEST_F(StoreTest, EntriesAndGcOldestFirst) {
  ResultStore s(dir_);
  s.save("cell/a", sample_result());
  s.save("cell/b", sample_result());
  s.save("cell/c", sample_result());
  auto entries = s.entries();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    EXPECT_GT(e.bytes, 0u);
    EXPECT_FALSE(e.key.empty());
  }
  const std::uint64_t total = s.total_bytes();
  EXPECT_GT(total, 0u);
  // Age "cell/a"'s file so gc must pick it first.
  for (const auto& e : entries)
    if (e.key == "cell/a")
      fs::last_write_time(e.path, fs::file_time_type::clock::now() -
                                      std::chrono::hours(24));
  const std::uint64_t keep_two = total - entries.front().bytes / 2;
  EXPECT_EQ(s.gc(keep_two), 1u);
  EXPECT_FALSE(s.load("cell/a").has_value());
  EXPECT_TRUE(s.load("cell/b").has_value());
  EXPECT_TRUE(s.load("cell/c").has_value());
  EXPECT_EQ(s.gc(0), 2u);
  EXPECT_EQ(s.total_bytes(), 0u);
}

TEST_F(StoreTest, ClearEmptiesTheStore) {
  ResultStore s(dir_);
  s.save("cell/a", sample_result());
  s.save("cell/b", sample_result());
  s.clear();
  EXPECT_EQ(s.entries().size(), 0u);
  EXPECT_FALSE(s.load("cell/a").has_value());
}

TEST_F(StoreTest, PersistsAndPreloadsTapes) {
  tape::TapeCache cache;
  bool recorded = false;
  cache.get_or_record(
      "tape/x",
      [] {
        tape::TapeBuilder b;
        b.load(0x1000, false);
        b.store(0x2000);
        b.compute(3);
        return b.take();
      },
      &recorded);
  ASSERT_TRUE(recorded);
  {
    ResultStore s(dir_);
    EXPECT_EQ(s.persist_tapes(cache), 1u);
    // A tape is not a cell: only cell saves count as writes.
    EXPECT_EQ(s.counters().writes, 0u);
    // Second persist is a no-op (the tape is already on disk).
    EXPECT_EQ(s.persist_tapes(cache), 0u);
  }
  ResultStore s(dir_);
  tape::TapeCache warm;
  EXPECT_EQ(s.preload_tapes(warm), 1u);
  bool re_recorded = false;
  const auto t = warm.get_or_record(
      "tape/x",
      []() -> tape::Tape {
        ADD_FAILURE() << "preloaded tape must not re-record";
        return tape::TapeBuilder().take();
      },
      &re_recorded);
  EXPECT_FALSE(re_recorded);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->stats.data_accesses(), 2u);
}

TEST_F(StoreTest, CorruptTapeIsSkippedOnPreload) {
  const auto record = [] {
    tape::TapeBuilder b;
    b.load(0x1000, false);
    return b.take();
  };
  tape::TapeCache cache;
  cache.get_or_record("tape/x", record);
  ResultStore s(dir_);
  ASSERT_EQ(s.persist_tapes(cache), 1u);
  // Truncate the tape body; its .key sidecar stays intact.
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "tapes"))
    if (e.path().extension() == ".tape")
      fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
  tape::TapeCache warm;
  EXPECT_EQ(s.preload_tapes(warm), 0u);

  // The cell re-records, and the next persist heals the pair on disk (once).
  warm.get_or_record("tape/x", record);
  EXPECT_EQ(s.persist_tapes(warm), 1u);
  EXPECT_EQ(s.persist_tapes(warm), 0u);
  tape::TapeCache healed;
  EXPECT_EQ(ResultStore(dir_).preload_tapes(healed), 1u);
}

// --- runner integration ---------------------------------------------------

ir::Program store_demo() {
  ir::ProgramBuilder b("storedemo");
  const auto A = b.array("A", {64, 64});
  const auto j = b.begin_loop("j", 0, 64);
  const auto i = b.begin_loop("i", 0, 64);
  b.stmt({ir::load_array(A, {b.sub(i), b.sub(j)}),
          ir::store_array(A, {b.sub(i), b.sub(j)})},
         2);
  b.end_loop();
  b.end_loop();
  return b.finish();
}

workloads::WorkloadInfo store_demo_info() {
  return {"storedemo", "synthetic", workloads::Category::Regular, store_demo,
          1.0, 1.0, 1.0};
}

void expect_equal_runs(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.conflict_share, b.conflict_share);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.stats.all(), b.stats.all());
}

TEST_F(StoreTest, WarmRunVersionIsBitIdenticalToCold) {
  ResultStore s(dir_);
  core::RunOptions opt;
  opt.result_store = &s;
  opt.classify_misses = true;  // exercise the classifier counters too
  const auto w = store_demo_info();
  const auto m = core::base_machine();

  const core::RunResult cold =
      core::run_version(w, m, core::Version::Selective, opt);
  EXPECT_EQ(s.counters().misses, 1u);
  EXPECT_EQ(s.counters().writes, 1u);

  const core::RunResult warm =
      core::run_version(w, m, core::Version::Selective, opt);
  EXPECT_EQ(s.counters().hits, 1u);
  expect_equal_runs(cold, warm);

  // An un-stored reference run confirms the cold pass itself was untainted.
  core::RunOptions plain;
  plain.classify_misses = true;
  const core::RunResult ref =
      core::run_version(w, m, core::Version::Selective, plain);
  expect_equal_runs(ref, cold);
}

/// The plain sweep shares interpretations and copies results between
/// versions, but the store still sees one cell per version: a cold suite
/// writes all 65 (copies under their own keys) and a warm one hits all 65,
/// with the same rows.
TEST_F(StoreTest, ColdThenWarmSuiteStoresEveryVersion) {
  ResultStore s(dir_);
  core::RunOptions opt;
  opt.result_store = &s;
  const auto m = core::base_machine();
  const core::ParallelSweepOptions par{.num_threads = 4};
  const std::size_t cells =
      workloads::all_workloads().size() * core::kAllVersions.size();

  const auto cold = core::sweep_suite(m, opt, par);
  EXPECT_EQ(s.counters().misses, cells);
  EXPECT_EQ(s.counters().writes, cells);
  const auto warm = core::sweep_suite(m, opt, par);
  EXPECT_EQ(s.counters().hits, cells);
  EXPECT_EQ(s.counters().writes, cells);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE(cold[i].benchmark);
    EXPECT_EQ(cold[i].base_cycles, warm[i].base_cycles);
    EXPECT_EQ(cold[i].pct, warm[i].pct);
    EXPECT_EQ(cold[i].stats.all(), warm[i].stats.all());
  }
}

/// A version whose copy source is a store hit takes the stored result: with
/// only Perl's Base stored, Pure Software copies it, and the row equals an
/// unstored sweep's.
TEST_F(StoreTest, CopyFromAStoredSourceMatchesASimulatedOne) {
  ResultStore s(dir_);
  core::RunOptions opt;
  opt.result_store = &s;
  const auto& perl = workloads::workload("Perl");
  const auto m = core::base_machine();
  (void)core::run_version(perl, m, core::Version::Base, opt);
  ASSERT_EQ(s.counters().writes, 1u);

  const core::ImprovementRow stored = core::improvements_for(perl, m, opt);
  EXPECT_EQ(s.counters().hits, 1u);
  EXPECT_EQ(s.counters().writes, core::kAllVersions.size());
  const core::ImprovementRow plain = core::improvements_for(perl, m);
  EXPECT_EQ(stored.base_cycles, plain.base_cycles);
  EXPECT_EQ(stored.pct, plain.pct);
  EXPECT_EQ(stored.stats.all(), plain.stats.all());
}

TEST_F(StoreTest, StoreKeySeparatesMachinesSchemesAndVersions) {
  const auto w = store_demo_info();
  core::RunOptions opt;
  const std::string base =
      core::store_key(w, core::base_machine(), core::Version::Base, opt);
  EXPECT_EQ(core::store_key(w, core::base_machine(), core::Version::Base, opt),
            base)
      << "key must be deterministic";
  EXPECT_NE(core::store_key(w, core::higher_mem_latency(), core::Version::Base,
                            opt),
            base);
  EXPECT_NE(
      core::store_key(w, core::base_machine(), core::Version::Selective, opt),
      base);
  core::RunOptions victim = opt;
  victim.scheme = hw::SchemeKind::Victim;
  EXPECT_NE(core::store_key(w, core::base_machine(), core::Version::Base,
                            victim),
            base);
  core::RunOptions classify = opt;
  classify.classify_misses = true;
  EXPECT_NE(core::store_key(w, core::base_machine(), core::Version::Base,
                            classify),
            base);
  core::RunOptions seeded = opt;
  seeded.data_seed ^= 1;
  EXPECT_NE(core::store_key(w, core::base_machine(), core::Version::Base,
                            seeded),
            base);
}

TEST_F(StoreTest, ArmedRunsBypassTheStore) {
  ResultStore s(dir_);
  const auto w = store_demo_info();
  const auto m = core::base_machine();

  core::RunOptions watched;
  watched.result_store = &s;
  watched.watchdog_accesses = 1'000'000'000;  // armed but never fires
  core::run_version(w, m, core::Version::Base, watched);

  core::RunOptions faulted;
  faulted.result_store = &s;
  faulted.fault.kind = fault::FaultKind::CounterFlip;
  faulted.fault.rate = 1e-4;
  core::run_version(w, m, core::Version::Base, faulted);

  const auto c = s.counters();
  EXPECT_EQ(c.hits + c.misses + c.writes, 0u)
      << "armed runs must never touch the store";
  EXPECT_EQ(s.entries().size(), 0u);
}

TEST_F(StoreTest, CorruptStoredCellResimulates) {
  ResultStore s(dir_);
  core::RunOptions opt;
  opt.result_store = &s;
  const auto w = store_demo_info();
  const auto m = core::base_machine();
  const auto cold = core::run_version(w, m, core::Version::Base, opt);
  // Smash the cell; the next run must re-simulate and heal it.
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "cells"))
    fs::resize_file(e.path(), 10);
  const auto resim = core::run_version(w, m, core::Version::Base, opt);
  expect_equal_runs(cold, resim);
  EXPECT_EQ(s.counters().corrupt, 1u);
  EXPECT_EQ(s.counters().writes, 2u);
  const auto warm = core::run_version(w, m, core::Version::Base, opt);
  expect_equal_runs(cold, warm);
}

// -- failing filesystem ------------------------------------------------------
// ENOSPC/EIO on the write path must be counted and diagnosable, never
// silent, and must degrade to a miss on the next load — the same trust
// contract corruption follows.

TEST_F(StoreTest, FailedWriteIsCountedAndDiagnosable) {
  ResultStore s(dir_);
  support::write_fault_hook() = [](const std::string&, const char* stage) {
    return std::strcmp(stage, "write") == 0;
  };
  s.save("cell-key-1", sample_result());
  support::write_fault_hook() = nullptr;

  const auto c = s.counters();
  EXPECT_EQ(c.write_errors, 1u);
  EXPECT_EQ(c.writes, 0u) << "a failed save is not a completed write";
  EXPECT_NE(s.last_write_error().find("write"), std::string::npos)
      << "diagnostic must name the failing stage: " << s.last_write_error();

  // A failed save leaves no entry behind: the load is a clean miss, so the
  // cell re-simulates next run instead of reading garbage.
  EXPECT_FALSE(s.load("cell-key-1").has_value());
  EXPECT_TRUE(s.entries().empty());
}

TEST_F(StoreTest, WriteRecoversWhenFilesystemHeals) {
  ResultStore s(dir_);
  support::write_fault_hook() = [](const std::string&, const char* stage) {
    return std::strcmp(stage, "rename") == 0;
  };
  s.save("cell-key-2", sample_result());
  support::write_fault_hook() = nullptr;
  EXPECT_EQ(s.counters().write_errors, 1u);

  s.save("cell-key-2", sample_result());
  EXPECT_EQ(s.counters().write_errors, 1u) << "healed save must not count";
  const auto r = s.load("cell-key-2");
  ASSERT_TRUE(r.has_value());
  expect_equal(*r, sample_result());
}

}  // namespace
}  // namespace selcache::store
