// Recording — where the Recorder delivers epoch snapshots and events.
//
// The simulator never formats output on the hot path: it records into an
// in-memory Recording, and serialization to JSONL/CSV happens after the
// run. This is also what makes the parallel sweep deterministic:
// each (workload, version) task owns a private Recording, and the engine
// concatenates them in fixed task order after all futures resolve.
#pragma once

#include <vector>

#include "support/stats.h"
#include "trace/event.h"

namespace selcache::trace {

/// One epoch's worth of counter movement. `deltas` holds per-interval
/// differences of the (cumulative) component counters, so a counter like
/// `mat.decays` reads as "decays during this epoch", not "decays so far".
struct EpochRecord {
  std::uint64_t index = 0;         ///< epoch number, 0-based
  std::uint64_t start_access = 0;  ///< first demand access covered
  std::uint64_t end_access = 0;    ///< one past the last access covered
  StatSet deltas;

  bool operator==(const EpochRecord& o) const {
    return index == o.index && start_access == o.start_access &&
           end_access == o.end_access && deltas.all() == o.deltas.all();
  }
};

/// The full phase-resolved record of one simulation.
struct Recording {
  std::vector<Event> events;
  std::vector<EpochRecord> epochs;

  bool operator==(const Recording&) const = default;
};

}  // namespace selcache::trace
