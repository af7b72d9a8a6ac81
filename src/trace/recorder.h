// Epoch-based metrics recorder — the continuous half of the observability
// layer.
//
// Components register snapshot sources (their export_stats), the memory
// hierarchy calls note_access() once per completed demand access, and every
// `epoch_length` accesses the recorder snapshots all sources, delta-encodes
// them against the previous snapshot, and emits an EpochRecord. Cumulative
// counters (mat.decays, l1d.misses, ...) therefore come out per-interval,
// which is the whole point: phase behavior is invisible in end-of-run
// aggregates.
//
// Hot-path contract: a simulation without a recorder pays exactly one
// `pointer != nullptr` branch per access / per event site. All snapshot
// work happens only at epoch boundaries.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "trace/recording.h"

namespace selcache::trace {

class Recorder {
 public:
  /// Appends to `out`; `epoch_length` = demand accesses per epoch (> 0).
  Recorder(Recording& out, std::uint64_t epoch_length);

  /// Register a cumulative-counter source; `exporter` adds the component's
  /// counters into the passed StatSet (the export_stats idiom).
  void register_source(std::function<void(StatSet&)> exporter);

  /// One demand access completed. Emits an epoch snapshot at boundaries.
  void note_access() {
    ++accesses_;
    if (accesses_ - epoch_start_ >= epoch_length_) snapshot();
  }

  /// Record a discrete event; the recorder stamps access index and epoch.
  void event(Event e) {
    e.access = accesses_;
    e.epoch = epochs_emitted_;
    out_.events.push_back(e);
  }

  /// Flush the final (possibly partial) epoch. Call once, after the run.
  void finish();

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t epoch_length() const { return epoch_length_; }

 private:
  void snapshot();

  Recording& out_;
  std::uint64_t epoch_length_;
  std::uint64_t accesses_ = 0;
  std::uint64_t epoch_start_ = 0;    ///< first access of the open epoch
  std::uint64_t epochs_emitted_ = 0;
  std::vector<std::function<void(StatSet&)>> sources_;
  StatSet prev_;  ///< cumulative counters at the last snapshot
};

}  // namespace selcache::trace
