#include "hw/sldt.h"

#include "fault/injector.h"

namespace selcache::hw {

Sldt::Sldt(SldtConfig cfg)
    : cfg_(cfg),
      block_(cfg_.block_size, "SLDT block size"),
      macro_(cfg_.macro_block_size, "SLDT macro-block size"),
      window_size_(cfg_.entries, "SLDT entries"),
      counter_size_(cfg_.counter_entries, "SLDT counter entries") {
  window_.resize(cfg_.entries);
  counters_.assign(cfg_.counter_entries,
                   SaturatingCounter<std::uint32_t>(cfg_.counter_max,
                                                    cfg_.counter_initial));
}

void Sldt::note_fault(SaturatingCounter<std::uint32_t>& ctr) {
  if (auto raw = fault_->corrupt_counter(ctr.value(), cfg_.counter_max,
                                         fault::CounterSite::Sldt))
    ctr.corrupt(*raw);
}

bool Sldt::check_integrity() const {
  for (const auto& ctr : counters_)
    if (ctr.value() > cfg_.counter_max) return false;
  return true;
}

void Sldt::export_stats(StatSet& out) const {
  out.add("sldt.spatial_hits", spatial_hits_);
  out.add("sldt.spatial_misses", spatial_misses_);
}

}  // namespace selcache::hw
