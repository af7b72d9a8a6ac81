// Spatial Locality Detection Table (Johnson, Merten & Hwu, MICRO 1997 [9]).
//
// Tracks, per macro-block, whether accesses exhibit spatial locality: an
// access whose neighboring cache block was touched recently is a *spatial
// hit* and increments the macro-block's Spatial Counter; an isolated access
// decrements it. When the counter is in its upper half the cache controller
// fetches a larger unit (two blocks instead of one) on a fill.
#pragma once

#include <cstdint>
#include <vector>

#include "support/bitutil.h"
#include "support/saturating.h"
#include "support/stats.h"
#include "support/types.h"

namespace selcache::fault {
class Injector;
}

namespace selcache::hw {

struct SldtConfig {
  std::uint32_t entries = 256;           ///< recently-touched-block window
  std::uint32_t block_size = 32;         ///< cache-block granularity
  std::uint32_t macro_block_size = 1024; ///< counter granularity (as MAT)
  std::uint32_t counter_entries = 1024;  ///< spatial-counter table size
  std::uint32_t counter_max = 15;
  std::uint32_t counter_initial = 8;     ///< start neutral-positive
};

class Sldt {
 public:
  explicit Sldt(SldtConfig cfg);

  /// Observe an access; updates the recent-block window and the spatial
  /// counter of the enclosing macro-block. Inline: this runs once per data
  /// access while the scheme is on, and every table index is a shift or a
  /// mask (no division).
  void note(Addr addr) {
    const Addr f = frame_of(addr);
    auto& ctr = counters_[counter_index(macro_of(addr))];
    // A spatial hit: either neighbor block was touched within the window.
    if (in_window(f - 1) || in_window(f + 1)) {
      ++spatial_hits_;
      ctr.increment();
    } else if (!in_window(f)) {
      // Re-touching the same block is neutral; a genuinely isolated touch
      // decays the spatial expectation.
      ++spatial_misses_;
      ctr.decrement();
    }
    if (fault_ != nullptr) note_fault(ctr);
    insert_window(f);
  }

  /// Does the macro-block containing `addr` currently exhibit spatial
  /// locality (counter in upper half)?
  bool spatial(Addr addr) const {
    return counters_[counter_index(macro_of(addr))].upper_half();
  }

  std::uint64_t spatial_hits() const { return spatial_hits_; }
  std::uint64_t spatial_misses() const { return spatial_misses_; }
  void export_stats(StatSet& out) const;

  /// Attach (non-owning) a fault injector; spatial-counter updates become
  /// corruption opportunities. nullptr detaches.
  void set_fault(fault::Injector* inj) { fault_ = inj; }

  /// Invariant sweep for the controller's integrity checks: every spatial
  /// counter is within its ceiling.
  bool check_integrity() const;

 private:
  struct WindowEntry {
    Addr frame = 0;
    bool valid = false;
  };

  Addr frame_of(Addr addr) const { return addr >> block_.shift(); }
  Addr macro_of(Addr addr) const { return addr >> macro_.shift(); }
  std::size_t window_index(Addr frame) const {
    return frame & window_size_.mask();
  }
  std::size_t counter_index(Addr mb) const {
    return mb & counter_size_.mask();
  }
  bool in_window(Addr frame) const {
    const WindowEntry& e = window_[window_index(frame)];
    return e.valid && e.frame == frame;
  }
  void insert_window(Addr frame) {
    WindowEntry& e = window_[window_index(frame)];
    e.valid = true;
    e.frame = frame;
  }
  /// Out-of-line fault hook (fault campaigns never ride the fast path).
  void note_fault(SaturatingCounter<std::uint32_t>& ctr);

  SldtConfig cfg_;
  Pow2 block_, macro_;  ///< block and macro-block sizes
  Pow2 window_size_;    ///< window entries
  Pow2 counter_size_;   ///< spatial-counter entries
  std::vector<WindowEntry> window_;               ///< direct-mapped by frame
  std::vector<SaturatingCounter<std::uint32_t>> counters_;  ///< by macro-block
  fault::Injector* fault_ = nullptr;
  std::uint64_t spatial_hits_ = 0;
  std::uint64_t spatial_misses_ = 0;
};

}  // namespace selcache::hw
