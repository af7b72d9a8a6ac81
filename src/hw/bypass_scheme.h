// Cache-bypassing hardware scheme (§3.1, after Johnson & Hwu [8,9]):
// MAT-driven selective caching + SLDT-driven variable-size fetching + bypass
// buffer. Operates on the L1 data cache.
#pragma once

#include "hw/bypass_buffer.h"
#include "hw/mat.h"
#include "hw/sldt.h"
#include "memsys/hw_hooks.h"

namespace selcache::hw {

struct BypassSchemeConfig {
  MatConfig mat{};
  SldtConfig sldt{};
  /// The paper sizes the buffer as "64 double words" (512 B); we hold whole
  /// L1 blocks so a bypassed stream keeps its spatial locality: 512 B /
  /// 32 B blocks = 16 entries.
  std::uint32_t buffer_entries = 16;
  std::uint32_t buffer_block_size = 32;
  /// Bypass only on strong evidence: the victim's macro-block frequency
  /// must be at least bias x the incoming block's AND above a floor.
  /// Without the margin, frequency noise under uniform access degenerates
  /// into coin-flip bypassing that only destroys locality.
  double bypass_bias = 1.5;
  std::uint32_t min_victim_freq = 4;
  /// Decrement the evicted block's macro-block counter (after [8]); turning
  /// this off slows MAT adaptation — stale phase state persists longer.
  bool punish_on_eviction = true;
  Cycle buffer_hit_extra = 0;  ///< extra cycles on a bypass-buffer hit
};

class BypassScheme final : public memsys::HwScheme {
 public:
  explicit BypassScheme(BypassSchemeConfig cfg);

  std::string_view name() const override { return "bypass"; }
  std::unique_ptr<memsys::HwScheme> clone() const override {
    return std::make_unique<BypassScheme>(*this);
  }

  void set_trace(trace::Recorder* rec) override;
  void set_fault(fault::Injector* inj) override {
    mat_.set_fault(inj);
    sldt_.set_fault(inj);
    buffer_.set_fault(inj);
  }
  bool check_integrity() const override {
    return mat_.check_integrity() && sldt_.check_integrity();
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

  const Mat& mat() const { return mat_; }
  const Sldt& sldt() const { return sldt_; }
  const BypassBuffer& buffer() const { return buffer_; }
  std::uint64_t bypasses() const { return bypasses_; }
  std::uint64_t widened_fetches() const { return widened_; }

 private:
  BypassSchemeConfig cfg_;
  Mat mat_;
  Sldt sldt_;
  BypassBuffer buffer_;
  trace::Recorder* trace_ = nullptr;
  std::uint64_t bypasses_ = 0;
  std::uint64_t widened_ = 0;
};

}  // namespace selcache::hw
