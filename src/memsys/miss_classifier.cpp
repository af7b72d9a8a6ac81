#include "memsys/miss_classifier.h"

#include "support/check.h"

namespace selcache::memsys {

MissClassifier::MissClassifier(std::uint64_t capacity_blocks,
                               std::uint32_t block_size)
    : capacity_blocks_(capacity_blocks),
      block_(block_size, "classifier block size") {
  SELCACHE_CHECK(capacity_blocks_ > 0);
}

MissClassifier::MissClassifier(const MissClassifier& other)
    : capacity_blocks_(other.capacity_blocks_),
      block_(other.block_),
      lru_(other.lru_),
      ever_seen_(other.ever_seen_),
      compulsory_(other.compulsory_),
      capacity_(other.capacity_),
      conflict_(other.conflict_) {
  index_.reserve(lru_.size());
  for (auto it = lru_.begin(); it != lru_.end(); ++it) index_.emplace(*it, it);
}

void MissClassifier::note_access(Addr addr) {
  const Addr f = frame(addr);
  if (auto it = index_.find(f); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() == capacity_blocks_) {
    index_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(f);
  index_[f] = lru_.begin();
  ever_seen_.insert(f);
}

MissKind MissClassifier::classify_miss(Addr addr) {
  const Addr f = frame(addr);
  if (ever_seen_.find(f) == ever_seen_.end()) {
    ++compulsory_;
    return MissKind::Compulsory;
  }
  // Block was seen before. If the fully-associative shadow also evicted it,
  // even perfect placement could not have kept it: capacity miss.
  if (index_.find(f) == index_.end()) {
    ++capacity_;
    return MissKind::Capacity;
  }
  ++conflict_;
  return MissKind::Conflict;
}

void MissClassifier::export_stats(StatSet& out,
                                  const std::string& prefix) const {
  out.add(prefix + ".miss.compulsory", compulsory_);
  out.add(prefix + ".miss.capacity", capacity_);
  out.add(prefix + ".miss.conflict", conflict_);
}

}  // namespace selcache::memsys
