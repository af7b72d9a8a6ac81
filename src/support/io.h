// Hardened atomic file writer shared by every on-disk artifact producer
// (reports, traces, tapes, store cells, run journals).
//
// Contract: the target path either keeps its old contents or atomically
// gains the complete new contents — never a truncated file. Every OS-level
// step (open, write, flush, optional fsync, rename) is checked; a failure
// at any of them removes the .tmp sibling, reports a structured error
// (errno text + the stage that failed), and leaves the target untouched.
// ENOSPC/EIO therefore surface as counted, diagnosable errors instead of
// silently-truncated output.
//
// A process-global fault hook lets tests simulate a failing filesystem at
// any stage without needing a real full disk — the writer-hardening
// regression tests (io_test.cpp) and the failing-FS store tests use it.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

namespace selcache::support {

/// Outcome of one atomic write. `ok()` — or operator bool — is the whole
/// truth; `stage`/`error` describe the first failing step for diagnostics.
struct WriteStatus {
  /// Which step failed: "" (success), "open", "write", "flush", "fsync",
  /// "rename", or "fault-hook" (simulated failure).
  std::string stage;
  /// strerror(errno) text captured at the failing step (or the hook's
  /// stage name for simulated failures). Empty on success.
  std::string error;

  bool ok() const { return stage.empty(); }
  explicit operator bool() const { return ok(); }
  /// "stage: error" for one-line diagnostics; empty on success.
  std::string message() const;
};

struct WriteOptions {
  /// fsync the .tmp file before the rename. Required for write-ahead data
  /// (the run journal); optional for rewritable artifacts (reports, store
  /// cells), where the atomic rename alone already prevents torn reads.
  bool sync = false;
};

/// Write `data` to `path` via a unique .tmp sibling + atomic rename.
/// Returns the structured status; on failure the .tmp is removed and the
/// target keeps its previous contents (or stays absent).
WriteStatus write_file_atomic(const std::string& path, const std::string& data,
                              const WriteOptions& opt = {});

/// write_file_atomic for content that arrives in pieces: each append()
/// goes straight to the .tmp sibling, so the whole content never has to be
/// in memory at once, and commit() makes it the target's with the same
/// all-or-nothing rename. The stages, status and fault hook are
/// write_file_atomic's, with the "write" stage consulted once per
/// append(). After a failed stage the .tmp is gone and later calls do
/// nothing; a file destroyed before commit() removes its .tmp too, and the
/// target keeps its previous contents either way.
class AtomicFile {
 public:
  /// Open a unique .tmp sibling of `path` (stage "open").
  explicit AtomicFile(std::string path);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Append `data` (stage "write"); false once any stage has failed.
  bool append(std::string_view data);

  /// Flush, fsync (when opt.sync), close and rename over the target.
  /// Returns the first failure of any stage, "open" and "write" included.
  WriteStatus commit(const WriteOptions& opt = {});

 private:
  /// Record a failure at `stage`, then close and remove the .tmp.
  void abandon(const char* stage, const char* detail = nullptr);

  std::string path_;
  std::string tmp_;
  std::FILE* f_ = nullptr;
  WriteStatus status_;
};

/// Test/fault-injection hook: consulted before each stage of every atomic
/// write with (path, stage); returning true makes that stage fail as if the
/// filesystem did. Stages fire in order: "open", "write", "flush", "fsync"
/// (only when opt.sync), "rename". Process-global and unsynchronized — set
/// only from single-threaded test setup and reset to nullptr after.
std::function<bool(const std::string& path, const char* stage)>&
write_fault_hook();

}  // namespace selcache::support
