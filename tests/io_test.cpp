// Atomic-writer hardening tests: the all-or-nothing contract (target keeps
// old contents or atomically gains complete new contents), structured
// stage/errno reporting, .tmp cleanup on failure, and the process-global
// fault hook every failing-filesystem regression test rides on.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/io.h"

namespace selcache::support {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("selcache_io_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/target.txt";
  }
  void TearDown() override {
    write_fault_hook() = nullptr;
    fs::remove_all(dir_);
  }

  std::string read_back() const {
    std::ifstream f(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
  }

  /// True if any .tmp sibling of the target is left in the directory.
  bool tmp_left_behind() const {
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.path().string().find(".tmp") != std::string::npos) return true;
    return false;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(IoTest, SuccessWritesCompleteContents) {
  const WriteStatus st = write_file_atomic(path_, "hello journal\n");
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(static_cast<bool>(st));
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(read_back(), "hello journal\n");
  EXPECT_FALSE(tmp_left_behind());
}

TEST_F(IoTest, SyncOptionStillSucceeds) {
  const WriteStatus st =
      write_file_atomic(path_, "synced", WriteOptions{.sync = true});
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(read_back(), "synced");
}

TEST_F(IoTest, OverwriteReplacesAtomically) {
  ASSERT_TRUE(write_file_atomic(path_, "old contents"));
  ASSERT_TRUE(write_file_atomic(path_, "new"));
  EXPECT_EQ(read_back(), "new");
}

TEST_F(IoTest, UnwritableDirectoryReportsOpenStage) {
  const WriteStatus st =
      write_file_atomic("/nonexistent-dir/selcache/x.txt", "data");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.stage, "open");
  EXPECT_FALSE(st.error.empty());
  EXPECT_NE(st.message().find("open: "), std::string::npos);
}

// Each stage of the pipeline must fail cleanly: structured status naming
// the stage, target untouched (old contents preserved), no .tmp litter.
TEST_F(IoTest, EveryStageFailureLeavesTargetUntouched) {
  ASSERT_TRUE(write_file_atomic(path_, "precious"));
  const std::vector<const char*> stages = {"open", "write", "flush", "fsync",
                                           "rename"};
  for (const char* stage : stages) {
    write_fault_hook() = [stage](const std::string&, const char* s) {
      return std::strcmp(s, stage) == 0;
    };
    // sync=true so the "fsync" stage actually runs.
    const WriteStatus st =
        write_file_atomic(path_, "clobber", WriteOptions{.sync = true});
    EXPECT_FALSE(st.ok()) << stage;
    EXPECT_EQ(st.stage, stage);
    EXPECT_FALSE(st.error.empty()) << stage;
    EXPECT_EQ(read_back(), "precious") << stage;
    EXPECT_FALSE(tmp_left_behind()) << stage;
  }
  write_fault_hook() = nullptr;
  // The writer recovers completely once the "filesystem" heals.
  EXPECT_TRUE(write_file_atomic(path_, "healed"));
  EXPECT_EQ(read_back(), "healed");
}

TEST_F(IoTest, FsyncStageSkippedWithoutSyncOption) {
  write_fault_hook() = [](const std::string&, const char* s) {
    return std::strcmp(s, "fsync") == 0;
  };
  // Without opt.sync the fsync stage never runs, so the hook never fires.
  const WriteStatus st = write_file_atomic(path_, "no-sync");
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(read_back(), "no-sync");
}

TEST_F(IoTest, HookSeesTargetPath) {
  std::vector<std::string> seen;
  write_fault_hook() = [&seen](const std::string& p, const char*) {
    seen.push_back(p);
    return false;
  };
  ASSERT_TRUE(write_file_atomic(path_, "x"));
  ASSERT_FALSE(seen.empty());
  for (const auto& p : seen) EXPECT_EQ(p, path_);
}

TEST_F(IoTest, FailedFirstWriteLeavesTargetAbsent) {
  write_fault_hook() = [](const std::string&, const char* s) {
    return std::strcmp(s, "rename") == 0;
  };
  const WriteStatus st = write_file_atomic(path_, "never lands");
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(fs::exists(path_)) << "failed write must not create target";
  EXPECT_FALSE(tmp_left_behind());
}

// AtomicFile takes a target's content in pieces: nothing lands before
// commit(), the pieces land whole, and a file dropped before commit() or
// failing mid-stream leaves the old contents and no .tmp.
TEST_F(IoTest, StreamedWriteLandsWholeOnCommitOnly) {
  ASSERT_TRUE(write_file_atomic(path_, "old"));
  {
    AtomicFile dropped(path_);
    EXPECT_TRUE(dropped.append("new "));
    EXPECT_TRUE(dropped.append("contents"));
    EXPECT_EQ(read_back(), "old");
  }
  EXPECT_EQ(read_back(), "old");
  EXPECT_FALSE(tmp_left_behind());

  AtomicFile f(path_);
  EXPECT_TRUE(f.append("new "));
  EXPECT_TRUE(f.append("contents"));
  EXPECT_TRUE(f.commit().ok());
  EXPECT_EQ(read_back(), "new contents");
  EXPECT_FALSE(tmp_left_behind());

  int writes = 0;
  write_fault_hook() = [&writes](const std::string&, const char* s) {
    return std::strcmp(s, "write") == 0 && ++writes == 2;
  };
  AtomicFile g(path_);
  EXPECT_TRUE(g.append("a"));
  EXPECT_FALSE(g.append("b"));
  EXPECT_FALSE(g.append("c"));
  EXPECT_EQ(writes, 2) << "no write is attempted after a failed one";
  const WriteStatus st = g.commit();
  EXPECT_EQ(st.stage, "write");
  EXPECT_EQ(read_back(), "new contents");
  EXPECT_FALSE(tmp_left_behind());
}

}  // namespace
}  // namespace selcache::support
