// TapeCache — in-memory, thread-safe store of recorded tapes keyed by
// (workload, version, stream fingerprint).
//
// Machine-configuration sweeps call get_or_record() once per (workload,
// version) cell per machine point; the first caller for a key runs the
// recording simulation, every later caller (same thread or another worker
// of a parallel sweep) gets the finished tape and replays it. Population
// is once-per-key even under concurrency: losers of the claim race block
// on the winner's future instead of re-running the simulation.
//
// The key deliberately includes a fingerprint of everything the recorded
// stream depends on besides the machine (data seed, optimization pipeline
// settings) so a sweep that varies those records fresh tapes instead of
// replaying stale ones.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tape/tape.h"

namespace selcache::tape {

class TapeCache {
 public:
  using TapePtr = std::shared_ptr<const Tape>;

  /// Return the tape for `key`, invoking `record` to produce it if absent.
  /// `record` runs at most once per key across all threads; concurrent
  /// callers for the same key block until it finishes. If `record` throws,
  /// the claim is released (a later call retries), waiters see the same
  /// exception, and the exception propagates to the recording caller.
  /// `*recorded_here` (optional) reports whether THIS call did the
  /// recording — callers use it to reuse the recording run's results
  /// instead of replaying.
  TapePtr get_or_record(const std::string& key,
                        const std::function<Tape()>& record,
                        bool* recorded_here = nullptr);

  /// The tape for `key`, or nullptr when absent or still being recorded.
  TapePtr find(const std::string& key) const;

  /// Fully recorded tapes, in key order (deterministic for reporting).
  std::vector<std::pair<std::string, TapePtr>> snapshot() const;

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  // map (not unordered_map) so snapshot() is deterministically ordered.
  std::map<std::string, std::shared_future<TapePtr>> tapes_;
};

}  // namespace selcache::tape
