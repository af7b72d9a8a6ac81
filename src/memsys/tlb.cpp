#include "memsys/tlb.h"

#include <algorithm>

#include "support/check.h"

namespace selcache::memsys {

Tlb::Tlb(TlbConfig cfg) : cfg_(std::move(cfg)) {
  SELCACHE_CHECK(cfg_.assoc > 0);
  SELCACHE_CHECK(cfg_.entries % cfg_.assoc == 0);
  page_ = Pow2(cfg_.page_size, cfg_.name + " page size");
  sets_ = Pow2(cfg_.entries / cfg_.assoc, cfg_.name + " set count");
  entries_.resize(cfg_.entries);
  way_.resize(sets_.value(), 0);
}

Cycle Tlb::access_scan(std::uint64_t si, Addr vpn) {
  Entry* set = &entries_[si * cfg_.assoc];
  const kernels::ProbeResult pr = kernels::probe_way(set, cfg_.assoc, vpn);
  if (pr.hit) {
    set[pr.way].lru = bump();
    stats_.record(true);
    way_[si] = pr.way;
    return 0;
  }
  stats_.record(false);
  // Refill where a fill would go: first invalid entry, else the LRU entry.
  Entry& victim = set[pr.way];
  victim.valid = true;
  victim.vpn = vpn;
  victim.lru = bump();
  // The freshly refilled way is the likeliest next hit in this set.
  way_[si] = static_cast<std::uint32_t>(&victim - set);
  return cfg_.miss_penalty;
}

void Tlb::renormalize() {
  std::vector<Entry*> order;
  order.reserve(entries_.size());
  for (Entry& e : entries_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const Entry* a, const Entry* b) { return a->lru < b->lru; });
  std::uint32_t next = 0;
  for (Entry* e : order) e->lru = ++next;
  stamp_ = next;
}

bool Tlb::probe(Addr addr) const {
  const Addr vpn = vpn_of(addr);
  const Entry* set = &entries_[set_index(vpn) * cfg_.assoc];
  return kernels::match_way(set, cfg_.assoc, vpn) != kernels::kNoWay;
}

void Tlb::export_stats(StatSet& out) const {
  out.add(cfg_.name + ".hits", stats_.hits);
  out.add(cfg_.name + ".misses", stats_.misses);
}

}  // namespace selcache::memsys
