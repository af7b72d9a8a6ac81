#include "hw/mat.h"

#include "fault/injector.h"
#include "trace/recorder.h"

namespace selcache::hw {

Mat::Mat(MatConfig cfg)
    : cfg_(cfg),
      macro_(cfg_.macro_block_size, "MAT macro-block size"),
      entries_(cfg_.entries, "MAT entries") {
  if (cfg_.decay_interval != 0)
    decay_mask_ = Pow2(cfg_.decay_interval, "MAT decay interval").mask();
  table_.resize(cfg_.entries);
  for (Entry& e : table_)
    e.count = SaturatingCounter<std::uint32_t>(cfg_.counter_max, 0);
}

void Mat::touch_fault(Entry& e) {
  if (auto raw = fault_->corrupt_counter(e.count.value(), cfg_.counter_max,
                                         fault::CounterSite::Mat))
    e.count.corrupt(*raw);
}

void Mat::decay_sweep() {
  ++decays_;
  for (Entry& t : table_) t.count.decay();
  if (trace_ != nullptr) trace_->event({.kind = trace::EventKind::MatDecay});
}

void Mat::punish(Addr addr, std::uint32_t by) {
  const Addr mb = macro_block(addr);
  Entry& e = table_[index_of(mb)];
  if (e.valid && e.tag == mb) e.count.decrement(by);
}

void Mat::clear() {
  for (Entry& e : table_) {
    e.valid = false;
    e.count.reset(0);
  }
  touches_ = 0;
}

bool Mat::check_integrity() const {
  for (std::uint32_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (!e.valid) continue;
    if (e.count.value() > cfg_.counter_max) return false;
    if (index_of(e.tag) != i) return false;
  }
  return true;
}

void Mat::export_stats(StatSet& out) const {
  out.add("mat.touches", touches_);
  out.add("mat.replacements", replacements_);
  out.add("mat.decays", decays_);
}

}  // namespace selcache::hw
