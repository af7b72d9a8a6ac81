// Fully-associative victim cache (Jouppi, ISCA 1990).
//
// Sits next to a main cache; receives the blocks that cache evicts and
// services misses that hit among recent victims, converting conflict misses
// into short-latency hits. The paper uses a 64-entry victim cache at L1 and
// a 512-entry one at L2 (§4.1) as one of its two hardware schemes.
#pragma once

#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "fault/injector.h"
#include "support/bitutil.h"
#include "support/stats.h"
#include "support/types.h"

namespace selcache::memsys {

class VictimCache {
 public:
  VictimCache(std::string name, std::uint32_t entries,
              std::uint32_t block_size);
  /// The same entries in the same LRU order, with an index into this
  /// cache's own list.
  VictimCache(const VictimCache& other);
  VictimCache& operator=(const VictimCache&) = delete;

  /// Insert an evicted block; LRU entry falls out if full. Returns the
  /// displaced block (address, dirty) if a dirty block was pushed out and
  /// must be written back.
  struct Displaced {
    Addr block_addr;
    bool dirty;
  };
  std::optional<Displaced> insert(Addr block_addr, bool dirty);

  /// Probe for the block containing `addr`; on hit the entry is REMOVED
  /// (the block is being promoted back into the main cache — the classic
  /// victim-cache swap). Returns its dirtiness on hit.
  std::optional<bool> extract(Addr addr);

  /// Side-effect-free lookup.
  bool probe(Addr addr) const;

  std::uint32_t occupancy() const {
    return static_cast<std::uint32_t>(lru_.size());
  }
  std::uint32_t capacity() const { return entries_; }
  const HitMiss& stats() const { return probes_; }
  std::uint64_t invalidated() const { return invalidated_; }
  void export_stats(StatSet& out) const;

  /// Attach (non-owning) a fault injector firing at `site`; each insert
  /// becomes an opportunity to silently lose the LRU victim (no writeback).
  /// nullptr detaches.
  void set_fault(fault::Injector* inj, fault::BufferSite site) {
    fault_ = inj;
    fault_site_ = site;
  }

  /// Invariant sweep for the controller's integrity checks: LRU list and
  /// index agree and occupancy is within capacity.
  bool check_integrity() const {
    return lru_.size() == index_.size() && lru_.size() <= entries_;
  }

 private:
  Addr frame(Addr addr) const { return addr >> block_.shift(); }

  std::string name_;
  std::uint32_t entries_;
  Pow2 block_;  ///< block size
  /// LRU order: front = most recent. Entries are block frame numbers.
  std::list<std::pair<Addr, bool>> lru_;
  std::unordered_map<Addr, std::list<std::pair<Addr, bool>>::iterator> index_;
  fault::Injector* fault_ = nullptr;
  fault::BufferSite fault_site_ = fault::BufferSite::L1Victim;
  HitMiss probes_;
  std::uint64_t invalidated_ = 0;
};

}  // namespace selcache::memsys
