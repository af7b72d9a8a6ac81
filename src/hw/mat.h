// Memory Access Table (Johnson & Hwu, ISCA 1997 [8]).
//
// Memory is divided into macro-blocks (1 KB in the paper, §4.1); the MAT is
// a tagged table of saturating access-frequency counters, one per resident
// macro-block. The cache controller consults it on every fill: if the
// incoming block's macro-block is accessed less frequently than the
// would-be victim's, the incoming block BYPASSES the cache (it is served via
// a small bypass buffer instead), keeping the hot block resident.
//
// Counters decay (halve) every `decay_interval` accesses so the table can
// track phase changes — slowly. That lag is precisely the pathology §5.1 of
// the DATE'03 paper identifies: after a phase change the stale counters
// cause useful new-phase blocks to be bypassed until the table re-learns.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bitutil.h"
#include "support/saturating.h"
#include "support/stats.h"
#include "support/types.h"

namespace selcache::trace {
class Recorder;
}

namespace selcache::fault {
class Injector;
}

namespace selcache::hw {

struct MatConfig {
  std::uint32_t entries = 4096;          ///< table entries (paper: 4096)
  std::uint32_t macro_block_size = 1024; ///< bytes per macro-block (paper: 1 KB)
  std::uint32_t counter_max = 255;       ///< saturating counter ceiling
  /// Halve all counters every N touches; 0 = never.
  std::uint64_t decay_interval = 262144;
};

class Mat {
 public:
  explicit Mat(MatConfig cfg);

  /// Record one access to the macro-block containing `addr`. Inline: runs
  /// once per data access while the scheme is on; the decay check is a mask.
  void touch(Addr addr) {
    const Addr mb = macro_block(addr);
    Entry& e = table_[index_of(mb)];
    if (!e.valid || e.tag != mb) {
      // Direct-mapped replacement: the evicted macro-block's history is
      // lost; the newcomer starts from scratch.
      if (e.valid) ++replacements_;
      e.valid = true;
      e.tag = mb;
      e.count.reset(0);
    }
    e.count.increment();
    if (fault_ != nullptr) touch_fault(e);
    // Count every touch (the energy model charges per table update) even
    // when periodic decay is disabled.
    ++touches_;
    if ((touches_ & decay_mask_) == 0) decay_sweep();
  }

  /// Penalize the macro-block whose cache block was just evicted ([8]
  /// adjusts the loser of a replacement decision downward so streams that
  /// keep losing cache space lose MAT standing too).
  void punish(Addr addr, std::uint32_t by = 1);

  /// Current frequency estimate for the macro-block containing `addr`.
  /// A macro-block not resident in the table counts as frequency 0.
  std::uint32_t frequency(Addr addr) const {
    const Addr mb = macro_block(addr);
    const Entry& e = table_[index_of(mb)];
    return (e.valid && e.tag == mb) ? e.count.value() : 0;
  }

  /// Reset all entries (not normally used at run time; tests only).
  void clear();

  const MatConfig& config() const { return cfg_; }
  std::uint64_t touches() const { return touches_; }
  std::uint64_t replacements() const { return replacements_; }
  std::uint64_t decays() const { return decays_; }
  void export_stats(StatSet& out) const;

  /// Attach (non-owning) a phase-trace recorder; decay sweeps become
  /// discrete events. nullptr detaches.
  void set_trace(trace::Recorder* rec) { trace_ = rec; }

  /// Attach (non-owning) a fault injector; counter updates become
  /// corruption opportunities. nullptr detaches.
  void set_fault(fault::Injector* inj) { fault_ = inj; }

  /// Cheap invariant sweep used by the controller's integrity checks: every
  /// valid entry's counter is within its ceiling and the entry is stored in
  /// the slot its tag hashes to. Holds by construction in an un-faulted
  /// run; an injected bit-flip can break either.
  bool check_integrity() const;

 private:
  struct Entry {
    Addr tag = 0;  ///< macro-block number
    bool valid = false;
    SaturatingCounter<std::uint32_t> count;
  };

  Addr macro_block(Addr addr) const { return addr >> macro_.shift(); }
  std::uint32_t index_of(Addr mb) const {
    return static_cast<std::uint32_t>(mb & entries_.mask());
  }

  /// Out-of-line slow paths of touch().
  void touch_fault(Entry& e);
  void decay_sweep();

  MatConfig cfg_;
  Pow2 macro_;    ///< macro-block size
  Pow2 entries_;  ///< table entries
  /// decay_interval-1; all ones when decay is off (decay_interval 0), which
  /// no touch count reaches.
  std::uint64_t decay_mask_ = ~std::uint64_t{0};
  std::vector<Entry> table_;
  trace::Recorder* trace_ = nullptr;
  fault::Injector* fault_ = nullptr;
  std::uint64_t touches_ = 0;
  std::uint64_t replacements_ = 0;
  std::uint64_t decays_ = 0;
};

}  // namespace selcache::hw
