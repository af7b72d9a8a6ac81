// Interface between the memory hierarchy and a hardware locality-optimization
// scheme (cache bypassing via MAT/SLDT, or victim caching).
//
// The hierarchy is mechanism-agnostic: at well-defined points of the access
// path it consults the attached scheme. The scheme carries the run-time
// ACTIVE flag that the paper's activate/deactivate (ON/OFF) instructions
// toggle; when inactive the hierarchy ignores the mechanism entirely (§4.1:
// "when the hardware optimization is turned off, we simply ignore the
// mechanism"), which is exactly what lets stale state survive across
// software-optimized regions.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "memsys/cache_config.h"
#include "support/stats.h"

namespace selcache::trace {
class Recorder;
}

namespace selcache::fault {
class Injector;
}

namespace selcache::memsys {

/// What to do with a block that is about to be placed in a cache.
enum class FillDecision { Fill, Bypass };

class HwScheme {
 public:
  HwScheme() = default;
  HwScheme& operator=(const HwScheme&) = delete;
  virtual ~HwScheme() = default;

  virtual std::string_view name() const = 0;

  /// A scheme in exactly this one's state (tables, buffers, counters and
  /// the ACTIVE flag) that evolves on its own from here: the runner forks a
  /// version's machine from another's with it. Attachments (recorder,
  /// injector) are copied as they are.
  virtual std::unique_ptr<HwScheme> clone() const = 0;

  /// Run-time toggle driven by ON/OFF instructions.
  void set_active(bool a) { active_ = a; }
  bool active() const { return active_; }

  /// Attach (non-owning) a phase-trace recorder; nullptr detaches. Schemes
  /// with sub-components (MAT, nested schemes) propagate the pointer. The
  /// default ignores tracing — a scheme only overrides this if it has
  /// discrete events worth reporting.
  virtual void set_trace(trace::Recorder* rec) { (void)rec; }

  /// Attach (non-owning) a fault injector; nullptr detaches. Schemes
  /// propagate the pointer to the state the fault model covers (MAT/SLDT
  /// counters, bypass buffer, victim caches). The default ignores it — a
  /// scheme with no fault-injectable state pays nothing.
  virtual void set_fault(fault::Injector* inj) { (void)inj; }

  /// Verify the scheme's internal invariants (controller integrity checks;
  /// see DegradePolicy). Must be cheap relative to the check interval.
  /// Default: nothing to check, always healthy.
  virtual bool check_integrity() const { return true; }

  /// Observe a demand access at `level` (called only while active).
  virtual void on_access(Level level, Addr addr, bool is_write, bool hit) = 0;

  /// Result of servicing a miss from an auxiliary structure.
  struct AuxHit {
    Cycle extra_latency = 1;  ///< cycles beyond the level's hit latency
    bool promote = false;     ///< move the block into the main cache (swap)
    bool dirty = false;       ///< dirtiness carried by the promoted block
  };

  /// The main cache at `level` missed; may the auxiliary structure (victim
  /// cache / bypass buffer) service it? nullopt = no, go to the next level.
  virtual std::optional<AuxHit> service_miss(Level level, Addr addr,
                                             bool is_write) = 0;

  /// A fetched block is about to be placed at `level`. `victim` is the block
  /// the fill would evict (nullopt when a free way exists).
  virtual FillDecision fill_decision(Level level, Addr addr,
                                     std::optional<Addr> victim) = 0;

  /// The hierarchy honored a Bypass decision: the scheme takes custody of
  /// the accessed word.
  virtual void on_bypassed(Level level, Addr addr, bool is_write) = 0;

  /// A fill at `level` pushed `block_addr` out of the cache.
  virtual void on_eviction(Level level, Addr block_addr, bool dirty) = 0;

  /// How many consecutive blocks to bring in on an L2->L1 fill (SLDT
  /// variable-size fetching); must return >= 1.
  virtual std::uint32_t fetch_width(Level level, Addr addr) = 0;

  virtual void export_stats(StatSet& out) const = 0;

 protected:
  HwScheme(const HwScheme&) = default;

 private:
  bool active_ = false;
};

}  // namespace selcache::memsys
