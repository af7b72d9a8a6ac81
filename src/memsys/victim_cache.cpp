#include "memsys/victim_cache.h"

#include "support/check.h"

namespace selcache::memsys {

VictimCache::VictimCache(std::string name, std::uint32_t entries,
                         std::uint32_t block_size)
    : name_(std::move(name)),
      entries_(entries),
      block_(block_size, name_ + " block size") {
  SELCACHE_CHECK(entries_ > 0);
}

VictimCache::VictimCache(const VictimCache& other)
    : name_(other.name_),
      entries_(other.entries_),
      block_(other.block_),
      lru_(other.lru_),
      fault_(other.fault_),
      fault_site_(other.fault_site_),
      probes_(other.probes_),
      invalidated_(other.invalidated_) {
  index_.reserve(lru_.size());
  for (auto it = lru_.begin(); it != lru_.end(); ++it)
    index_.emplace(it->first, it);
}

std::optional<VictimCache::Displaced> VictimCache::insert(Addr block_addr,
                                                          bool dirty) {
  if (fault_ != nullptr && !lru_.empty() &&
      fault_->should_invalidate(fault_site_)) {
    // Silent loss: the LRU victim vanishes without a writeback.
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++invalidated_;
  }
  const Addr f = frame(block_addr);
  if (auto it = index_.find(f); it != index_.end()) {
    // Already present (can happen when a block bounces between main cache
    // and victim cache): refresh recency and dirtiness.
    it->second->second = it->second->second || dirty;
    lru_.splice(lru_.begin(), lru_, it->second);
    return std::nullopt;
  }
  std::optional<Displaced> displaced;
  if (lru_.size() == entries_) {
    auto& [old_frame, old_dirty] = lru_.back();
    if (old_dirty) displaced = Displaced{old_frame << block_.shift(), true};
    index_.erase(old_frame);
    lru_.pop_back();
  }
  lru_.emplace_front(f, dirty);
  index_[f] = lru_.begin();
  return displaced;
}

std::optional<bool> VictimCache::extract(Addr addr) {
  auto it = index_.find(frame(addr));
  if (it == index_.end()) {
    probes_.record(false);
    return std::nullopt;
  }
  probes_.record(true);
  const bool dirty = it->second->second;
  lru_.erase(it->second);
  index_.erase(it);
  return dirty;
}

bool VictimCache::probe(Addr addr) const {
  return index_.find(frame(addr)) != index_.end();
}

void VictimCache::export_stats(StatSet& out) const {
  out.add(name_ + ".hits", probes_.hits);
  out.add(name_ + ".misses", probes_.misses);
  // Fault-only key: kept out of un-faulted runs so their stat/JSONL output
  // stays byte-identical to the pre-fault-layer format.
  if (fault_ != nullptr) out.add(name_ + ".invalidated", invalidated_);
}

}  // namespace selcache::memsys
