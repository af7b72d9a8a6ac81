// Persistent result store: on-disk, content-fingerprinted memoization of
// simulation cells, making every sweep incremental across processes.
//
// A cell is one (workload, version, machine, scheme, optimizer pipeline)
// simulation; its key is a readable string that embeds fingerprints of
// everything the result depends on plus a store format version (see
// core::store_key). Values are the cell's full StatSet snapshot and scalar
// results. The store can also persist recorded trace tapes (tape::TapeCache
// entries) through the same directory; no command does, and only the
// benchmark harness and the tape layer's tests use that half.
//
// Layout under the store directory:
//
//   cells/<fnv64(key)>.cell   one stored result (format below)
//   tapes/<fnv64(key)>.tape   one recorded tape (tape::save_tape format)
//   tapes/<fnv64(key)>.key    the tape's cache key (one line, text)
//
// ## Trust contract
//
// The store NEVER turns disk state into an error on the read path: a
// missing, truncated, mis-sized, checksum-mismatched, or key-collided
// entry is a miss (the cell re-simulates and is rewritten). Writes are
// crash-safe: a unique .tmp sibling is written and fsync-free atomically
// renamed over the target, so readers only ever observe whole files.
// Entries embed their full key and a checksum over the payload; loads
// verify both, so a hash-collision between two keys' file names degrades
// to a miss, never to a wrong result.
//
// Fault-armed, watchdog-armed, and degrade-armed runs bypass the store
// entirely (mirroring the tape rule): their results are functions of the
// injected perturbation, not of the cell key.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "support/io.h"
#include "support/stats.h"
#include "tape/cache.h"

namespace selcache::store {

/// Bump when the entry encoding, the key derivation, or anything else that
/// would make old entries stale changes. Part of core::store_key, so a
/// version bump invalidates every existing cell at once.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

/// One memoized cell result: the scalar outputs plus the full counter
/// snapshot core::RunResult carries for store-eligible runs. (Fault and
/// degradation counters are absent by construction — fault-armed runs
/// never touch the store.)
struct StoredResult {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double l1_miss_rate = 0.0;
  double l2_miss_rate = 0.0;
  double conflict_share = 0.0;
  std::uint64_t toggles = 0;
  StatSet stats;
};

/// Hit/miss/write accounting for one store handle's lifetime. `writes`
/// counts cells saved (persisted tapes are not cells). `corrupt` counts
/// loads that found a file but rejected it (also counted in `misses` —
/// corruption is a miss, never an error). `write_errors` counts cell and
/// tape writes the filesystem rejected (ENOSPC/EIO/...):
/// correctness-neutral (the cell re-simulates next run) but never silent —
/// see last_write_error().
struct StoreCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t write_errors = 0;
};

class ResultStore {
 public:
  struct Options {
    /// Serve hits but never write (warm CI lanes against a shared store).
    bool read_only = false;
  };

  /// Opens (creating if needed) the store rooted at `dir`. Throws only for
  /// a directory that cannot be created — never for bad entry contents.
  /// (Two overloads, not a default argument: a `= {}` default for a nested
  /// aggregate with member initializers is ill-formed inside the enclosing
  /// class.)
  explicit ResultStore(std::string dir);
  ResultStore(std::string dir, Options opt);

  const std::string& dir() const { return dir_; }
  bool read_only() const { return opt_.read_only; }

  /// The stored result for `key`, or nullopt on miss (absent or rejected).
  std::optional<StoredResult> load(const std::string& key);

  /// Persist `r` under `key` (no-op when read-only). Crash-safe; a lost
  /// race with a concurrent writer of the same key is harmless (both write
  /// the same bytes for the same key).
  void save(const std::string& key, const StoredResult& r);

  /// Load every readable tape in the store into `cache`. Corrupt tape
  /// files are skipped and remembered by this handle. Returns the number of
  /// tapes inserted.
  std::size_t preload_tapes(tape::TapeCache& cache);

  /// Write every finished tape of `cache` that is not already on disk, or
  /// whose file this handle's preload_tapes rejected (no-op when
  /// read-only). Returns the number of tapes written.
  std::size_t persist_tapes(const tape::TapeCache& cache);

  /// One on-disk entry (cell or tape) for `ls` / `gc`.
  struct Entry {
    std::string path;   ///< absolute file path
    std::string key;    ///< embedded cell key, or the tape's cache key
    std::uint64_t bytes = 0;
    std::int64_t mtime = 0;  ///< seconds-resolution modification time
  };

  /// All entries, sorted by path (deterministic for reporting). Unreadable
  /// entries list with an empty key.
  std::vector<Entry> entries() const;

  std::uint64_t total_bytes() const;

  /// Delete oldest-first (by mtime, then path) until the store holds at
  /// most `max_bytes`. Returns the number of files removed. Tapes and
  /// their .key sidecars are removed together.
  std::size_t gc(std::uint64_t max_bytes);

  /// Remove every entry (the directory itself stays).
  void clear();

  /// This handle's hit/miss/write counters (thread-safe snapshot).
  StoreCounters counters() const;

  /// "stage: errno text" of the most recent failed write (empty if none) —
  /// the diagnostic companion of counters().write_errors.
  std::string last_write_error() const;

  /// The one-line accounting a sweep prints to stderr when it is done, e.g.
  /// "store: 3 hits, 2 misses (0 corrupt), 2 cells written -> DIR".
  std::string summary() const;

 private:
  std::string cell_path(const std::string& key) const;
  void count(std::uint64_t StoreCounters::* field);
  /// st.ok(); a failure is counted in write_errors and remembered.
  bool write_ok(const support::WriteStatus& st);

  std::string dir_;
  Options opt_;
  /// Guards the members below it (file ops are lock-free).
  mutable std::mutex mu_;
  StoreCounters counters_;
  std::string last_write_error_;
  /// Tape paths (without extension) preload_tapes could not load.
  std::set<std::string> rejected_tapes_;
};

}  // namespace selcache::store
