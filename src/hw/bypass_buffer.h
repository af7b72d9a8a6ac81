// Bypass buffer: a tiny fully-associative cache of double words that holds
// data the MAT decided not to cache. §4.1: "The bypass buffer is a fully-
// associative cache with 64 double words and uses LRU replacement."
//
// Stored as a flat array with monotonic LRU stamps (MRU = max stamp, LRU =
// min stamp): at 64 entries a linear scan is cheaper than the hash-map +
// linked-list it replaced, and the buffer does no allocation after
// construction. The observable behavior (hit/miss, dirty merging, which
// word is displaced, writeback and fault-invalidation counts) is identical
// to an MRU-at-front list.
#pragma once

#include <vector>

#include "support/bitutil.h"
#include "support/stats.h"
#include "support/types.h"

namespace selcache::fault {
class Injector;
}

namespace selcache::hw {

class BypassBuffer {
 public:
  explicit BypassBuffer(std::uint32_t entries = 64,
                        std::uint32_t word_size = 8);

  /// Look up the double word containing `addr`; refreshes LRU on hit and
  /// merges dirtiness on a write hit.
  bool access(Addr addr, bool is_write) {
    const Addr w = word_of(addr);
    for (Entry& e : slots_) {
      if (e.valid && e.word == w) {
        e.dirty = e.dirty || is_write;
        e.stamp = ++stamp_;
        stats_.record(true);
        return true;
      }
    }
    stats_.record(false);
    return false;
  }

  /// Insert the double word containing `addr` (after a bypassed fill).
  /// The LRU entry is displaced when full; displaced dirty words count as
  /// writebacks.
  void insert(Addr addr, bool dirty);

  bool probe(Addr addr) const {
    const Addr w = word_of(addr);
    for (const Entry& e : slots_)
      if (e.valid && e.word == w) return true;
    return false;
  }

  std::uint32_t occupancy() const { return live_; }
  std::uint32_t capacity() const { return entries_; }
  const HitMiss& stats() const { return stats_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t invalidated() const { return invalidated_; }
  void export_stats(StatSet& out) const;

  /// Attach (non-owning) a fault injector; each insert becomes an
  /// opportunity to silently lose the LRU entry (dirty data and all —
  /// that is the fault). nullptr detaches.
  void set_fault(fault::Injector* inj) { fault_ = inj; }

 private:
  struct Entry {
    Addr word = 0;
    std::uint64_t stamp = 0;
    bool dirty = false;
    bool valid = false;
  };

  Addr word_of(Addr addr) const { return addr >> word_.shift(); }

  /// The valid entry with the minimum stamp; requires live_ > 0.
  Entry& lru_entry();

  std::uint32_t entries_;
  Pow2 word_;  ///< word size
  std::vector<Entry> slots_;
  std::uint32_t live_ = 0;
  std::uint64_t stamp_ = 0;
  fault::Injector* fault_ = nullptr;
  HitMiss stats_;
  std::uint64_t writebacks_ = 0;
  std::uint64_t invalidated_ = 0;
};

}  // namespace selcache::hw
