#include "memsys/hierarchy.h"

#include "fault/injector.h"
#include "support/bitutil.h"
#include "trace/recorder.h"

namespace selcache::memsys {

Hierarchy::Hierarchy(HierarchyConfig cfg, StreamSide* stream)
    : cfg_(cfg),
      own_stream_(stream == nullptr ? std::optional<StreamSide>(cfg_)
                                    : std::nullopt),
      stream_(stream == nullptr ? &*own_stream_ : stream),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      mem_(cfg.mem) {
  if (cfg_.classify_misses)
    classifier_ = std::make_unique<MissClassifier>(cfg_.l1d.num_blocks(),
                                                   cfg_.l1d.block_size);
}

Hierarchy::Hierarchy(const Hierarchy& other)
    : cfg_(other.cfg_),
      own_stream_(other.own_stream_),
      stream_(own_stream_ ? &*own_stream_ : other.stream_),
      l1d_(other.l1d_),
      l2_(other.l2_),
      mem_(other.mem_),
      classifier_(other.classifier_ != nullptr
                      ? std::make_unique<MissClassifier>(*other.classifier_)
                      : nullptr) {}

Cycle Hierarchy::refill_l2(Addr addr, bool is_write) {
  // One scan resolves both the lookup and the would-be victim; the preview
  // stays valid below because nothing between here and the fill touches
  // this L2 set (the aux-service path returns early).
  const Cache::LookupResult lr = l2_.access_with_victim(addr, is_write);
  if (lr.hit) return 0;

  // L2 missed. Let the scheme's L2 auxiliary structure (e.g. 512-entry
  // victim cache) try to service it before paying for memory.
  if (hw_active()) {
    if (auto aux = hw_->service_miss(Level::L2, addr, is_write)) {
      if (aux->promote) {
        if (auto ev = l2_.fill_at(addr, lr.fill_way, aux->dirty || is_write))
          hw_->on_eviction(Level::L2, ev->block_addr, ev->dirty);
      }
      return aux->extra_latency;
    }
  }

  const Cycle mem_lat = mem_.fetch_latency(cfg_.l2.block_size);
  FillDecision d = FillDecision::Fill;
  if (hw_active()) d = hw_->fill_decision(Level::L2, addr, lr.victim);
  if (d == FillDecision::Fill) {
    if (auto ev = l2_.fill_at(addr, lr.fill_way, is_write)) {
      if (hw_active()) hw_->on_eviction(Level::L2, ev->block_addr, ev->dirty);
    }
  } else {
    hw_->on_bypassed(Level::L2, addr, is_write);
  }
  return mem_lat;
}

Cycle Hierarchy::place_l1d(Addr addr, bool is_write,
                           std::optional<Addr> first_victim,
                           std::uint32_t first_way) {
  std::uint32_t width = 1;
  if (hw_active()) width = std::max(1u, hw_->fetch_width(Level::L1D, addr));

  Cycle extra = 0;
  const Addr base = l1d_.block_base_of(addr);
  for (std::uint32_t i = 0; i < width; ++i) {
    const Addr blk = base + static_cast<Addr>(i) * cfg_.l1d.block_size;
    // The demand block (i == 0) is a known miss with a victim previewed by
    // access_with_victim(); only the SLDT-widened extras need a probe.
    if (i > 0 && l1d_.probe(blk)) continue;
    // Extra (SLDT-widened) blocks are brought in only when already resident
    // in L2 — widening the L2->L1 transfer, never generating extra memory
    // traffic, but occupying the L1-L2 path (charged below). Matches the
    // spirit of [9]'s variable-size fetch.
    if (i > 0 && !l2_.probe(blk)) break;
    // The L2->L1 path is twice the memory bus (SimpleScalar default): a
    // widened fetch occupies it for block/(2*bus) extra cycles.
    if (i > 0) extra += cfg_.l1d.block_size / (2 * cfg_.mem.bus_width);

    const std::optional<Addr> victim =
        i == 0 ? first_victim : l1d_.victim_for(blk);
    FillDecision d = FillDecision::Fill;
    if (hw_active()) d = hw_->fill_decision(Level::L1D, blk, victim);
    if (d == FillDecision::Fill) {
      // The demand block reuses the previewed way; extras scanned their own
      // victim just above.
      auto ev = i == 0 ? l1d_.fill_at(blk, first_way, is_write)
                       : l1d_.fill(blk, false);
      if (ev && hw_active())
        hw_->on_eviction(Level::L1D, ev->block_addr, ev->dirty);
    } else if (i == 0) {
      hw_->on_bypassed(Level::L1D, addr, is_write);
    }
  }
  return extra;
}

Cycle Hierarchy::refill_l1i(Addr addr) {
  Cycle lat = cfg_.l2.latency;
  // Instruction path bypasses the data-side hardware scheme. The stream
  // side has filled the L1I already.
  if (!l2_.access(addr, false)) {
    lat += mem_.fetch_latency(cfg_.l2.block_size);
    l2_.fill(addr, false);
  }
  return lat;
}

Cycle Hierarchy::miss_l1d(Addr addr, bool is_write,
                          std::optional<Addr> victim,
                          std::uint32_t fill_way) {
  if (hw_active()) hw_->on_access(Level::L1D, addr, is_write, false);

  // L1D miss: auxiliary structure first (victim cache swap / bypass buffer).
  if (hw_active()) {
    if (auto aux = hw_->service_miss(Level::L1D, addr, is_write)) {
      if (aux->promote) {
        if (auto ev = l1d_.fill_at(addr, fill_way, aux->dirty || is_write))
          hw_->on_eviction(Level::L1D, ev->block_addr, ev->dirty);
      }
      return aux->extra_latency;
    }
  }

  // Down to L2 (and memory if needed), then place into L1D.
  Cycle lat = cfg_.l2.latency;
  lat += refill_l2(addr, is_write);
  lat += place_l1d(addr, is_write, victim, fill_way);
  return lat;
}

double Hierarchy::l1_miss_rate() const {
  HitMiss combined = l1d_.demand_stats();
  combined += stream_->l1i.demand_stats();
  return combined.miss_rate();
}

double Hierarchy::l2_miss_rate() const { return l2_.demand_stats().miss_rate(); }

void Hierarchy::export_stats(StatSet& out) const {
  l1d_.export_stats(out);
  stream_->l1i.export_stats(out);
  l2_.export_stats(out);
  stream_->dtlb.export_stats(out);
  stream_->itlb.export_stats(out);
  mem_.export_stats(out);
  if (classifier_ != nullptr) classifier_->export_stats(out, "l1d");
  if (hw_ != nullptr) hw_->export_stats(out);
}

}  // namespace selcache::memsys
