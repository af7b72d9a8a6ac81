#include "memsys/cache.h"

#include <algorithm>

namespace selcache::memsys {

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  block_ = Pow2(cfg_.block_size, cfg_.name + " block size");
  sets_ = Pow2(cfg_.num_sets(), cfg_.name + " set count");
  blocks_.resize(cfg_.num_blocks());
  way_.resize(sets_.value(), 0);
}

bool Cache::access_scan(std::uint64_t si, Addr tag, bool is_write) {
  Block* set = &blocks_[si * cfg_.assoc];
  const std::uint32_t w = kernels::match_way(set, cfg_.assoc, tag);
  if (w != kernels::kNoWay) {
    touch_hit(set[w], is_write);
    way_[si] = w;
    return true;
  }
  demand_.record(false);
  return false;
}

Cache::LookupResult Cache::access_with_victim_scan(std::uint64_t si, Addr tag,
                                                   bool is_write) {
  Block* set = &blocks_[si * cfg_.assoc];
  const kernels::ProbeResult pr = kernels::probe_way(set, cfg_.assoc, tag);
  if (pr.hit) {
    touch_hit(set[pr.way], is_write);
    way_[si] = pr.way;
    return {.hit = true, .victim = std::nullopt};
  }
  demand_.record(false);
  LookupResult r;
  r.fill_way = pr.way;
  if (!pr.free) {
    // Same victim fill() would pick: the LRU way of a full set.
    r.victim = static_cast<Addr>(set[pr.way].tag) << block_.shift();
  }
  return r;
}

std::optional<Addr> Cache::victim_for(Addr addr) const {
  const Block* set = set_of(addr);
  const kernels::VictimWay v = kernels::victim_way(set, cfg_.assoc);
  if (v.free) return std::nullopt;  // free way, no eviction
  return static_cast<Addr>(set[v.way].tag) << block_.shift();
}

std::optional<Eviction> Cache::fill(Addr addr, bool dirty) {
  const Addr tag = tag_of(addr);
  const std::uint64_t si = set_index(addr);
  Block* set = &blocks_[si * cfg_.assoc];
  Block* victim = nullptr;
  bool free_way = false;
  // One scan: residency check (fill of a resident block is a caller bug)
  // fused with free-way/LRU victim selection.
  for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
    Block& b = set[w];
    SELCACHE_CHECK_MSG(!b.valid || b.tag != tag,
                       cfg_.name + ": fill of resident block");
    if (!b.valid) {
      if (!free_way) victim = &b;
      free_way = true;
    } else if (!free_way && (victim == nullptr || b.lru < victim->lru)) {
      victim = &b;
    }
  }
  std::optional<Eviction> evicted;
  if (victim->valid) {
    evicted = Eviction{static_cast<Addr>(victim->tag) << block_.shift(),
                       victim->dirty};
    if (victim->dirty) ++writebacks_;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = dirty;
  victim->lru = bump();
  ++fills_;
  // The freshly filled way is the likeliest next hit in this set.
  way_[si] = static_cast<std::uint32_t>(victim - set);
  return evicted;
}

std::optional<Eviction> Cache::fill_at(Addr addr, std::uint32_t way,
                                       bool dirty) {
  SELCACHE_CHECK(way < cfg_.assoc);
  const std::uint64_t si = set_index(addr);
  Block& victim = blocks_[si * cfg_.assoc + way];
  std::optional<Eviction> evicted;
  if (victim.valid) {
    evicted = Eviction{static_cast<Addr>(victim.tag) << block_.shift(),
                       victim.dirty};
    if (victim.dirty) ++writebacks_;
  }
  victim.valid = true;
  victim.tag = tag_of(addr);
  victim.dirty = dirty;
  victim.lru = bump();
  ++fills_;
  way_[si] = way;
  return evicted;
}

void Cache::renormalize() {
  // Rank every block by its current stamp; ranks 1..n preserve the exact
  // recency order with the counter reset far away from the wrap point.
  std::vector<Block*> order;
  order.reserve(blocks_.size());
  for (Block& b : blocks_) order.push_back(&b);
  std::sort(order.begin(), order.end(),
            [](const Block* a, const Block* b) { return a->lru < b->lru; });
  std::uint32_t next = 0;
  for (Block* b : order) b->lru = ++next;
  stamp_ = next;
}

std::optional<bool> Cache::invalidate(Addr addr) {
  Block* b = find(addr);
  if (b == nullptr) return std::nullopt;
  b->valid = false;
  return b->dirty;
}

void Cache::flush() {
  for (Block& b : blocks_) b.valid = false;
}

std::uint64_t Cache::resident_blocks() const {
  std::uint64_t n = 0;
  for (const Block& b : blocks_)
    if (b.valid) ++n;
  return n;
}

void Cache::export_stats(StatSet& out) const {
  out.add(cfg_.name + ".hits", demand_.hits);
  out.add(cfg_.name + ".misses", demand_.misses);
  out.add(cfg_.name + ".writebacks", writebacks_);
  out.add(cfg_.name + ".fills", fills_);
}

}  // namespace selcache::memsys
