// Translation lookaside buffer.
//
// Modeled as a set-associative cache of page frames. Table 1 of the paper
// lists the TLBs as "512K, 4-way" / "256K, 4-way" — we read those as the
// *reach* (mapped bytes); with 4 KB pages that is 128 data-TLB entries and
// 64 instruction-TLB entries, matching SimpleScalar's defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "memsys/probe_kernels.h"
#include "support/bitutil.h"
#include "support/stats.h"
#include "support/types.h"

namespace selcache::memsys {

struct TlbConfig {
  std::string name = "dtlb";
  std::uint32_t entries = 128;
  std::uint32_t assoc = 4;
  std::uint32_t page_size = 4096;
  Cycle miss_penalty = 30;  ///< page-walk cycles charged on a TLB miss
};

class Tlb {
 public:
  explicit Tlb(TlbConfig cfg);

  /// Translate the page containing `addr`; returns the cycles charged
  /// (0 on hit, miss_penalty on miss). The missing translation is filled.
  /// Defined inline (with a per-set way predictor) because it runs once per
  /// demand access: page-local streams short-circuit to one compare + LRU
  /// stamp, with exactly the scan path's updates. The prediction is
  /// validated by the entry's own (valid, vpn) state, so refills that
  /// recycle the predicted entry are detected without bookkeeping.
  Cycle access(Addr addr) {
    const Addr vpn = vpn_of(addr);
    const std::uint64_t si = set_index(vpn);
    Entry& pred = entries_[si * cfg_.assoc + way_[si]];
    if (pred.valid && pred.vpn == vpn) {
      pred.lru = bump();
      stats_.record(true);
      return 0;
    }
    return access_scan(si, vpn);
  }

  bool probe(Addr addr) const;

  /// Host-side prefetch of the set `addr` maps to (batched-replay
  /// lookahead); no simulator state or statistics are touched.
  void prefetch_set(Addr addr) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&entries_[set_index(vpn_of(addr)) * cfg_.assoc]);
#endif
  }

  const TlbConfig& config() const { return cfg_; }
  const HitMiss& stats() const { return stats_; }
  void export_stats(StatSet& out) const;

  /// Test-only wrap hooks, mirroring Cache's (see cache.h): force the
  /// stamp counter near the uint32_t boundary and observe entry stamps.
  void debug_set_stamp(std::uint32_t v) { stamp_ = v; }
  std::uint32_t debug_stamp() const { return stamp_; }
  std::optional<std::uint32_t> debug_lru_of(Addr addr) const {
    const Addr vpn = vpn_of(addr);
    const std::uint64_t si = set_index(vpn);
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      const Entry& e = entries_[si * cfg_.assoc + w];
      if (e.valid && e.vpn == vpn) return e.lru;
    }
    return std::nullopt;
  }

 private:
  /// 16 bytes so a 4-way set is one 64-byte line. The 32-bit LRU stamp is
  /// renormalized (order-preserving) before it can wrap.
  struct Entry {
    Addr vpn = 0;
    std::uint32_t lru = 0;
    bool valid = false;
  };
  static_assert(sizeof(Entry) == kernels::kSlotBytes);
  // Same 16-byte slot layout as Cache::Block: the shared probe kernels
  // (memsys/probe_kernels.h) address vpn/lru/valid by raw byte offset.
  static_assert(offsetof(Entry, vpn) == kernels::kSlotKeyOff);
  static_assert(offsetof(Entry, lru) == kernels::kSlotLruOff);
  static_assert(offsetof(Entry, valid) == kernels::kSlotValidOff);

  std::uint32_t bump() {
    if (stamp_ == std::numeric_limits<std::uint32_t>::max()) renormalize();
    return ++stamp_;
  }
  void renormalize();

  Addr vpn_of(Addr addr) const { return addr >> page_.shift(); }
  std::uint64_t set_index(Addr vpn) const { return vpn & sets_.mask(); }

  /// Slow path of access() (prediction missed): set scan + refill on miss.
  Cycle access_scan(std::uint64_t si, Addr vpn);

  TlbConfig cfg_;
  Pow2 page_;  ///< page size
  Pow2 sets_;  ///< set count
  std::vector<Entry> entries_;
  /// Per-set way predictor: way of the last hit/refill in the set.
  std::vector<std::uint32_t> way_;
  std::uint32_t stamp_ = 0;
  HitMiss stats_;
};

}  // namespace selcache::memsys
