// Victim-caching hardware scheme (§3.1, after Jouppi [10]): fully-
// associative victim caches next to L1D (64 entries) and L2 (512 entries),
// per §4.1. When the scheme is toggled OFF, evictions are not captured and
// misses are not serviced from the victim caches — but their contents
// persist, which is what makes the selective version profitable in the
// small-loop/large-loop scenario of §5.2.
#pragma once

#include "memsys/hw_hooks.h"
#include "memsys/victim_cache.h"

namespace selcache::hw {

struct VictimSchemeConfig {
  std::uint32_t l1_entries = 64;
  std::uint32_t l2_entries = 512;
  std::uint32_t l1_block_size = 32;
  std::uint32_t l2_block_size = 128;
  Cycle swap_latency = 1;  ///< extra cycles for a victim-cache swap
};

class VictimScheme final : public memsys::HwScheme {
 public:
  explicit VictimScheme(VictimSchemeConfig cfg);

  std::string_view name() const override { return "victim"; }
  std::unique_ptr<memsys::HwScheme> clone() const override {
    return std::make_unique<VictimScheme>(*this);
  }

  void set_trace(trace::Recorder* rec) override { trace_ = rec; }
  void set_fault(fault::Injector* inj) override {
    l1v_.set_fault(inj, fault::BufferSite::L1Victim);
    l2v_.set_fault(inj, fault::BufferSite::L2Victim);
  }
  bool check_integrity() const override {
    return l1v_.check_integrity() && l2v_.check_integrity();
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

  const memsys::VictimCache& l1_victims() const { return l1v_; }
  const memsys::VictimCache& l2_victims() const { return l2v_; }

 private:
  VictimSchemeConfig cfg_;
  memsys::VictimCache l1v_;
  memsys::VictimCache l2v_;
  trace::Recorder* trace_ = nullptr;
};

}  // namespace selcache::hw
