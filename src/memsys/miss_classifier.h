// Conflict- vs. capacity- vs. compulsory-miss classification.
//
// A miss is *compulsory* if the block was never referenced before,
// *capacity* if a fully-associative LRU cache of the same total capacity
// would also have missed, and *conflict* otherwise (the classic
// three-C model with the fully-associative shadow as the capacity oracle).
// §4.2 of the paper reports that conflict misses are 53–72% of all misses in
// its suite; bench_table2 reproduces that column with this classifier.
#pragma once

#include <list>
#include <unordered_map>
#include <unordered_set>

#include "memsys/cache_config.h"
#include "support/bitutil.h"
#include "support/stats.h"

namespace selcache::memsys {

enum class MissKind { Compulsory, Capacity, Conflict };

class MissClassifier {
 public:
  /// `capacity_blocks`: number of blocks the shadowed cache holds.
  MissClassifier(std::uint64_t capacity_blocks, std::uint32_t block_size);
  /// The same shadow stack and counters, with an index into this
  /// classifier's own list.
  MissClassifier(const MissClassifier& other);
  MissClassifier& operator=(const MissClassifier&) = delete;

  /// Observe every demand access (hits included — the shadow LRU stack needs
  /// full recency information).
  void note_access(Addr addr);

  /// Classify a miss that the real cache just took. Must be called BEFORE
  /// note_access for the same reference.
  MissKind classify_miss(Addr addr);

  std::uint64_t compulsory() const { return compulsory_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t conflict() const { return conflict_; }
  std::uint64_t total() const { return compulsory_ + capacity_ + conflict_; }

  /// Fraction of classified misses that are conflict misses, in [0,1].
  double conflict_share() const {
    return total() == 0 ? 0.0
                        : static_cast<double>(conflict_) /
                              static_cast<double>(total());
  }

  void export_stats(StatSet& out, const std::string& prefix) const;

 private:
  Addr frame(Addr addr) const { return addr >> block_.shift(); }

  std::uint64_t capacity_blocks_;
  Pow2 block_;  ///< block size
  /// Fully-associative LRU shadow: front = MRU.
  std::list<Addr> lru_;
  std::unordered_map<Addr, std::list<Addr>::iterator> index_;
  std::unordered_set<Addr> ever_seen_;
  std::uint64_t compulsory_ = 0, capacity_ = 0, conflict_ = 0;
};

}  // namespace selcache::memsys
