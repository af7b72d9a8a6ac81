// Set-associative cache with true-LRU replacement.
//
// The cache is a tag store only — the simulator tracks which blocks are
// resident, not their contents. Lookup (access) and placement (fill) are
// separate operations so the hardware bypassing scheme can interpose between
// a miss and the fill: it previews the would-be victim (victim_for), decides
// fill-vs-bypass, and only then calls fill().
//
// Hot-path engineering: block size and set count are powers of two, checked
// once at construction (Pow2), so tag and set extraction are a shift and a
// mask, with no fallback for other geometries. access_with_victim() performs
// lookup, LRU update, and victim preview in ONE pass over the set, so the
// demand path never scans a set twice. The demand-path methods are defined
// here (not in the .cpp) so the hierarchy/timing chain inlines them, and a
// per-set way predictor — the way of the last hit or fill in each set —
// short-circuits the set scan. A global last-hit memo thrashes as soon as
// an inner loop walks two arrays; a per-set predictor keeps each stream's
// entry because distinct arrays land in distinct sets. The prediction is
// validated by the block's own (valid, tag) state, so every mutation path
// (fill, invalidate, flush) is covered without bookkeeping, and the fast
// path performs exactly the scan path's updates: same LRU stamp, same dirty
// bit, same counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "memsys/cache_config.h"
#include "memsys/probe_kernels.h"
#include "support/bitutil.h"
#include "support/stats.h"

namespace selcache::memsys {

/// A block that fell out of the cache during fill().
struct Eviction {
  Addr block_addr = 0;  ///< first byte address of the evicted block
  bool dirty = false;
};

class Cache {
 public:
  explicit Cache(CacheConfig cfg);

  /// Outcome of a combined lookup + victim preview (one set scan).
  struct LookupResult {
    bool hit = false;
    /// On a miss: the way fill(addr) would use right now (first free way,
    /// else the LRU way) — valid input for fill_at() as long as the set is
    /// not mutated in between. Meaningless on a hit.
    std::uint32_t fill_way = 0;
    /// On a miss: the block fill(addr) would evict right now, or nullopt if
    /// the set still has a free way. Meaningless on a hit.
    std::optional<Addr> victim;
  };

  /// Look up the block containing `addr`; updates LRU and dirty state on a
  /// hit. Returns true on hit. Does NOT allocate on miss.
  bool access(Addr addr, bool is_write) {
    const Addr tag = tag_of(addr);
    const std::uint64_t si = set_index(addr);
    Block& pred = blocks_[si * cfg_.assoc + way_[si]];
    if (pred.valid && pred.tag == tag) {
      touch_hit(pred, is_write);
      return true;
    }
    return access_scan(si, tag, is_write);
  }

  /// Fused access + victim preview: exactly the observable behavior of
  /// access() followed (on a miss) by victim_for(), in a single scan of the
  /// set. This is the demand-path entry point used by the hierarchy.
  LookupResult access_with_victim(Addr addr, bool is_write) {
    const Addr tag = tag_of(addr);
    const std::uint64_t si = set_index(addr);
    Block& pred = blocks_[si * cfg_.assoc + way_[si]];
    if (pred.valid && pred.tag == tag) {
      touch_hit(pred, is_write);
      return {.hit = true, .victim = std::nullopt};
    }
    return access_with_victim_scan(si, tag, is_write);
  }

  /// Side-effect-free lookup.
  bool probe(Addr addr) const { return find(addr) != nullptr; }

  /// Address of the block that fill(addr) would evict right now, or nullopt
  /// if the set still has an invalid way (no eviction needed).
  std::optional<Addr> victim_for(Addr addr) const;

  /// Insert the block containing `addr` (LRU way replaced). Returns the
  /// eviction that occurred, if any. Must not be called while resident.
  std::optional<Eviction> fill(Addr addr, bool dirty);

  /// fill() without the victim-selection scan: `way` must be the fill_way
  /// previewed by access_with_victim() on this set, with no intervening
  /// mutation of the set. Exactly fill()'s updates, one line touched.
  std::optional<Eviction> fill_at(Addr addr, std::uint32_t way, bool dirty);

  /// First byte address of the block containing `addr`.
  Addr block_base_of(Addr addr) const {
    return (addr >> block_.shift()) << block_.shift();
  }

  /// Remove the block containing `addr` if resident; returns its dirtiness.
  std::optional<bool> invalidate(Addr addr);

  /// Drop all blocks (statistics are kept).
  void flush();

  const CacheConfig& config() const { return cfg_; }
  const HitMiss& demand_stats() const { return demand_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t fills() const { return fills_; }
  std::uint64_t resident_blocks() const;

  /// Host-side prefetch of the set `addr` maps to — a pure performance hint
  /// for batched-replay lookahead. Touches no simulator state or statistics
  /// (a 4-way set is one 64-byte line, so one prefetch covers the scan).
  void prefetch_set(Addr addr) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&blocks_[set_index(addr) * cfg_.assoc]);
#endif
  }

  /// Set index of the block containing `addr` (public so tests can check the
  /// shift/mask form against the reference div/mod formula).
  std::uint64_t set_index(Addr addr) const {
    return (addr >> block_.shift()) & sets_.mask();
  }

  void export_stats(StatSet& out) const;

  /// Test-only: jump the LRU stamp counter to `v` so the next accesses
  /// drive it across the uint32_t wrap boundary without 2^32 warm-up
  /// accesses. Existing block stamps are untouched (they stay far below
  /// `v`, exactly as after a long real run).
  void debug_set_stamp(std::uint32_t v) { stamp_ = v; }
  std::uint32_t debug_stamp() const { return stamp_; }
  /// Test-only: LRU stamp of the resident block containing `addr`, or
  /// nullopt when absent. Lets wrap tests assert strict stamp distinctness
  /// across a renormalization.
  std::optional<std::uint32_t> debug_lru_of(Addr addr) const {
    const Block* b = find(addr);
    return b == nullptr ? std::nullopt : std::optional(b->lru);
  }

 private:
  /// 16 bytes so a 4-way set is one 64-byte line (the scan touches one line
  /// instead of two). The 32-bit LRU stamp is renormalized before it can
  /// wrap, preserving the exact recency order (see bump()).
  struct Block {
    Addr tag = 0;
    std::uint32_t lru = 0;  ///< per-cache stamp; larger = more recent
    bool valid = false;
    bool dirty = false;
  };
  static_assert(sizeof(Block) == kernels::kSlotBytes);
  // The probe kernels (memsys/probe_kernels.h) address tag/lru/valid by raw
  // byte offset — the layout shared with Tlb::Entry is part of their API.
  static_assert(offsetof(Block, tag) == kernels::kSlotKeyOff);
  static_assert(offsetof(Block, lru) == kernels::kSlotLruOff);
  static_assert(offsetof(Block, valid) == kernels::kSlotValidOff);

  Addr tag_of(Addr addr) const { return addr >> block_.shift(); }
  Block* set_of(Addr addr) { return &blocks_[set_index(addr) * cfg_.assoc]; }
  const Block* set_of(Addr addr) const {
    return &blocks_[set_index(addr) * cfg_.assoc];
  }

  /// Next LRU stamp; renormalizes all stamps (order-preserving) before the
  /// 32-bit counter could wrap, so recency comparisons stay exact forever.
  std::uint32_t bump() {
    if (stamp_ == std::numeric_limits<std::uint32_t>::max()) renormalize();
    return ++stamp_;
  }

  /// The hit-path updates, identical for the memo and the scan route.
  void touch_hit(Block& b, bool is_write) {
    b.lru = bump();
    b.dirty = b.dirty || is_write;
    demand_.record(true);
  }

  Block* find(Addr addr) {
    Block* set = set_of(addr);
    const std::uint32_t w = kernels::match_way(set, cfg_.assoc, tag_of(addr));
    return w == kernels::kNoWay ? nullptr : &set[w];
  }
  const Block* find(Addr addr) const {
    return const_cast<Cache*>(this)->find(addr);
  }

  /// Slow paths (way prediction missed): full set scan.
  bool access_scan(std::uint64_t si, Addr tag, bool is_write);
  LookupResult access_with_victim_scan(std::uint64_t si, Addr tag,
                                       bool is_write);

  /// Reassign all LRU stamps to their rank in recency order (out of line;
  /// runs at most once per 2^32 stamps).
  void renormalize();

  CacheConfig cfg_;
  Pow2 block_;                 ///< block size
  Pow2 sets_;                  ///< set count
  std::vector<Block> blocks_;   ///< num_sets * assoc, set-major
  /// Per-set way predictor: way of the last hit/fill in the set. Staleness
  /// is detected through the predicted block's own valid/tag state.
  std::vector<std::uint32_t> way_;
  std::uint32_t stamp_ = 0;
  HitMiss demand_;
  std::uint64_t writebacks_ = 0;
  std::uint64_t fills_ = 0;
};

}  // namespace selcache::memsys
