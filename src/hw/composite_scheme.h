// Composite hardware scheme: cache bypassing + victim caching at once.
//
// The paper evaluates the two mechanisms separately; the composite answers
// the natural follow-up ("what if a design shipped both?"): the MAT decides
// fills, the bypass buffer serves bypassed data, and the victim caches
// capture whatever the cache does evict. Used by the scheme-comparison
// ablation.
#pragma once

#include "hw/bypass_scheme.h"
#include "hw/victim_scheme.h"

namespace selcache::hw {

struct CompositeSchemeConfig {
  BypassSchemeConfig bypass{};
  VictimSchemeConfig victim{};
};

class CompositeScheme final : public memsys::HwScheme {
 public:
  explicit CompositeScheme(CompositeSchemeConfig cfg);

  std::string_view name() const override { return "bypass+victim"; }
  std::unique_ptr<memsys::HwScheme> clone() const override {
    return std::make_unique<CompositeScheme>(*this);
  }

  void set_trace(trace::Recorder* rec) override {
    bypass_.set_trace(rec);
    victim_.set_trace(rec);
  }
  void set_fault(fault::Injector* inj) override {
    bypass_.set_fault(inj);
    victim_.set_fault(inj);
  }
  bool check_integrity() const override {
    return bypass_.check_integrity() && victim_.check_integrity();
  }
  void on_access(memsys::Level level, Addr addr, bool is_write,
                 bool hit) override;
  std::optional<AuxHit> service_miss(memsys::Level level, Addr addr,
                                     bool is_write) override;
  memsys::FillDecision fill_decision(memsys::Level level, Addr addr,
                                     std::optional<Addr> victim) override;
  void on_bypassed(memsys::Level level, Addr addr, bool is_write) override;
  void on_eviction(memsys::Level level, Addr block_addr, bool dirty) override;
  std::uint32_t fetch_width(memsys::Level level, Addr addr) override;
  void export_stats(StatSet& out) const override;

  const BypassScheme& bypass() const { return bypass_; }
  const VictimScheme& victim() const { return victim_; }

 private:
  BypassScheme bypass_;
  VictimScheme victim_;
};

}  // namespace selcache::hw
