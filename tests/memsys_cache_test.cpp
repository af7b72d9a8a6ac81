// Unit + parameterized property tests for caches, victim caches, TLBs and
// the three-C miss classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "memsys/cache.h"
#include "memsys/main_memory.h"
#include "memsys/miss_classifier.h"
#include "memsys/tlb.h"
#include "memsys/victim_cache.h"
#include "support/rng.h"

namespace selcache::memsys {
namespace {

CacheConfig tiny_cache(std::uint32_t assoc = 2) {
  return CacheConfig{.name = "t",
                     .size_bytes = 256,
                     .assoc = assoc,
                     .block_size = 32,
                     .latency = 2};
}

TEST(Cache, MissThenFillThenHit) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.access(0x100, false));
  c.fill(0x100, false);
  EXPECT_TRUE(c.access(0x100, false));
  EXPECT_TRUE(c.access(0x11f, false));   // same 32B block
  EXPECT_FALSE(c.access(0x120, false));  // next block
}

TEST(Cache, ConfigGeometry) {
  CacheConfig cfg = tiny_cache(2);
  EXPECT_EQ(cfg.num_blocks(), 8u);
  EXPECT_EQ(cfg.num_sets(), 4u);
  CacheConfig bad = cfg;
  bad.block_size = 24;
  EXPECT_THROW(bad.validate(), std::logic_error);
}

TEST(Cache, LruEvictsOldest) {
  Cache c(tiny_cache(2));  // 4 sets x 2 ways
  // Three blocks in set 0 (set stride = 4 blocks x 32B = 128B).
  c.fill(0 * 128, false);
  c.fill(4 * 128, false);
  c.access(0 * 128, false);  // refresh block 0 -> block 4*128 is LRU
  auto ev = c.fill(8 * 128, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_addr, 4u * 128);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(4 * 128));
}

TEST(Cache, VictimPreviewMatchesFill) {
  Cache c(tiny_cache(2));
  EXPECT_EQ(c.victim_for(0), std::nullopt);  // free way
  c.fill(0, false);
  EXPECT_EQ(c.victim_for(128), std::nullopt);  // still one free way
  c.fill(128, false);
  auto preview = c.victim_for(256);
  ASSERT_TRUE(preview.has_value());
  auto ev = c.fill(256, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_addr, *preview);
}

TEST(Cache, DirtyEvictionCountsWriteback) {
  Cache c(tiny_cache(1));  // direct-mapped: 8 sets
  c.fill(0, /*dirty=*/true);
  auto ev = c.fill(0 + 256, false);  // same set (8 blocks * 32B = 256)
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, WriteMarksDirty) {
  Cache c(tiny_cache(1));
  c.fill(0, false);
  c.access(0, /*is_write=*/true);
  auto ev = c.fill(256, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
}

TEST(Cache, InvalidateRemoves) {
  Cache c(tiny_cache());
  c.fill(0x40, true);
  auto dirty = c.invalidate(0x40);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(*dirty);
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_EQ(c.invalidate(0x40), std::nullopt);
}

TEST(Cache, DoubleFillRejected) {
  Cache c(tiny_cache());
  c.fill(0, false);
  EXPECT_THROW(c.fill(0, false), std::logic_error);
}

TEST(Cache, FlushKeepsStats) {
  Cache c(tiny_cache());
  c.access(0, false);
  c.fill(0, false);
  c.flush();
  EXPECT_EQ(c.resident_blocks(), 0u);
  EXPECT_EQ(c.demand_stats().misses, 1u);
}

// Property sweep: residency never exceeds capacity, and an immediate
// re-access of a filled block always hits, across geometries.
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(CacheGeometry, ResidencyBoundedAndRefillHits) {
  const auto [size, assoc] = GetParam();
  Cache c(CacheConfig{.name = "p",
                      .size_bytes = size,
                      .assoc = assoc,
                      .block_size = 32,
                      .latency = 1});
  Rng rng(size * 31 + assoc);
  for (int i = 0; i < 4000; ++i) {
    const Addr a = rng.below(1 << 20);
    if (!c.access(a, rng.chance(0.3))) {
      c.fill(a, false);
      EXPECT_TRUE(c.probe(a));
    }
    ASSERT_LE(c.resident_blocks(), c.config().num_blocks());
  }
  EXPECT_EQ(c.demand_stats().accesses(), 4000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1024, 4096, 32768),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// Fully-associative LRU equivalence: a cache with assoc == num_blocks must
// behave exactly like an LRU list.
TEST(Cache, FullyAssociativeIsLru) {
  Cache c(CacheConfig{.name = "fa",
                      .size_bytes = 128,
                      .assoc = 4,
                      .block_size = 32,
                      .latency = 1});
  for (Addr a = 0; a < 4; ++a) c.fill(a * 32, false);
  c.access(0, false);  // 0 MRU; LRU order now 32,64,96,0
  auto ev = c.fill(4 * 32, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_addr, 32u);
}

// The fused single-scan lookup must be observationally identical to the
// two-scan access() + victim_for() sequence it replaces, on any stream.
TEST(Cache, AccessWithVictimMatchesTwoScanSequence) {
  Cache fused(tiny_cache(2));
  Cache reference(tiny_cache(2));
  Rng rng(0xfeedULL);
  for (int i = 0; i < 20000; ++i) {
    const Addr a = rng.below(1 << 14);
    const bool w = rng.chance(0.3);

    const std::optional<Addr> ref_victim =
        reference.probe(a) ? std::nullopt : reference.victim_for(a);
    const bool ref_hit = reference.access(a, w);
    const Cache::LookupResult lr = fused.access_with_victim(a, w);

    ASSERT_EQ(lr.hit, ref_hit) << "access " << i;
    if (!ref_hit) {
      ASSERT_EQ(lr.victim, ref_victim) << "access " << i;
      auto ev_f = fused.fill(a, w);
      auto ev_r = reference.fill(a, w);
      ASSERT_EQ(ev_f.has_value(), ev_r.has_value());
      if (ev_f) {
        ASSERT_EQ(ev_f->block_addr, ev_r->block_addr);
        ASSERT_EQ(ev_f->dirty, ev_r->dirty);
      }
    }
  }
  EXPECT_EQ(fused.demand_stats().hits, reference.demand_stats().hits);
  EXPECT_EQ(fused.demand_stats().misses, reference.demand_stats().misses);
  EXPECT_EQ(fused.writebacks(), reference.writebacks());
}

TEST(Cache, AccessWithVictimUpdatesLruAndDirtyOnHit) {
  Cache c(tiny_cache(2));
  c.fill(0, false);
  c.fill(128, false);  // same set; LRU order: 0, 128
  auto lr = c.access_with_victim(0, /*is_write=*/true);
  EXPECT_TRUE(lr.hit);  // hit refreshes 0 -> 128 becomes the victim
  auto miss = c.access_with_victim(256, false);
  EXPECT_FALSE(miss.hit);
  ASSERT_TRUE(miss.victim.has_value());
  EXPECT_EQ(*miss.victim, 128u);
  auto ev = c.fill(256, false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->block_addr, 128u);
}

TEST(Cache, SetIndexMatchesDivModReference) {
  for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
    Cache c(tiny_cache(assoc));
    const auto& cfg = c.config();
    for (Addr a = 0; a < (1 << 14); a += 7)
      ASSERT_EQ(c.set_index(a), (a / cfg.block_size) % cfg.num_sets())
          << "assoc=" << assoc << " addr=" << a;
  }
}

TEST(VictimCache, InsertExtractRoundtrip) {
  VictimCache v("v", 4, 32);
  EXPECT_EQ(v.insert(0x100, true), std::nullopt);
  EXPECT_TRUE(v.probe(0x110));  // same block
  auto dirty = v.extract(0x110);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(*dirty);
  EXPECT_FALSE(v.probe(0x100));  // extraction removes
  EXPECT_EQ(v.occupancy(), 0u);
}

TEST(VictimCache, LruDisplacement) {
  VictimCache v("v", 2, 32);
  v.insert(0x000, true);
  v.insert(0x020, false);
  auto displaced = v.insert(0x040, false);  // pushes out 0x000 (dirty)
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->block_addr, 0x000u);
  EXPECT_TRUE(displaced->dirty);
  EXPECT_FALSE(v.probe(0x000));
  EXPECT_TRUE(v.probe(0x020));
  EXPECT_TRUE(v.probe(0x040));
}

TEST(VictimCache, ReinsertRefreshesRecency) {
  VictimCache v("v", 2, 32);
  v.insert(0x000, false);
  v.insert(0x020, false);
  v.insert(0x000, true);   // refresh + dirty merge
  v.insert(0x040, false);  // should displace 0x020, not 0x000
  EXPECT_TRUE(v.probe(0x000));
  EXPECT_FALSE(v.probe(0x020));
  auto d = v.extract(0x000);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(*d);  // dirtiness merged on reinsert
}

TEST(VictimCache, StatsCountProbes) {
  VictimCache v("v", 2, 32);
  v.insert(0x0, false);
  v.extract(0x0);
  v.extract(0x0);
  EXPECT_EQ(v.stats().hits, 1u);
  EXPECT_EQ(v.stats().misses, 1u);
}

TEST(Tlb, MissFillsTranslation) {
  Tlb t(TlbConfig{.name = "t", .entries = 8, .assoc = 2, .page_size = 4096,
                  .miss_penalty = 30});
  EXPECT_EQ(t.access(0x1000), 30u);
  EXPECT_EQ(t.access(0x1fff), 0u);  // same page
  EXPECT_EQ(t.access(0x2000), 30u);
  EXPECT_EQ(t.stats().misses, 2u);
  EXPECT_EQ(t.stats().hits, 1u);
}

TEST(Tlb, CapacityEviction) {
  Tlb t(TlbConfig{.name = "t", .entries = 4, .assoc = 4, .page_size = 4096,
                  .miss_penalty = 10});
  for (Addr p = 0; p < 5; ++p) t.access(p * 4096);
  EXPECT_FALSE(t.probe(0));  // LRU page evicted
  EXPECT_TRUE(t.probe(4 * 4096));
}

TEST(MainMemory, BurstLatency) {
  MainMemory m(MemoryConfig{.access_latency = 100, .bus_width = 8});
  EXPECT_EQ(m.fetch_latency(8), 100u);
  EXPECT_EQ(m.fetch_latency(128), 100u + 15u);
  EXPECT_EQ(m.reads(), 2u);
}

TEST(MissClassifier, ThreeCs) {
  MissClassifier mc(/*capacity_blocks=*/2, /*block_size=*/32);
  // First touch: compulsory.
  EXPECT_EQ(mc.classify_miss(0), MissKind::Compulsory);
  mc.note_access(0);
  mc.note_access(32);
  mc.note_access(64);  // evicts block 0 from the 2-entry shadow
  // Block 0 was seen but fell out of the same-capacity LRU: capacity miss.
  EXPECT_EQ(mc.classify_miss(0), MissKind::Capacity);
  mc.note_access(0);
  // Block 0 is in the shadow now: a real-cache miss on it would be conflict.
  EXPECT_EQ(mc.classify_miss(0), MissKind::Conflict);
  EXPECT_EQ(mc.total(), 3u);
  EXPECT_NEAR(mc.conflict_share(), 1.0 / 3.0, 1e-12);
}

TEST(MissClassifier, ConflictDetectedAgainstSetPressure) {
  // A direct-mapped cache with 8 blocks thrashes on a 2-block ping-pong that
  // a fully-associative one keeps; the classifier must call those conflicts.
  Cache c(CacheConfig{.name = "dm",
                      .size_bytes = 256,
                      .assoc = 1,
                      .block_size = 32,
                      .latency = 1});
  MissClassifier mc(8, 32);
  std::uint64_t conflicts = 0;
  for (int round = 0; round < 20; ++round) {
    for (Addr a : {Addr{0}, Addr{256}}) {  // same set, direct-mapped
      if (!c.access(a, false)) {
        if (mc.classify_miss(a) == MissKind::Conflict) ++conflicts;
        c.fill(a, false);
      }
      mc.note_access(a);
    }
  }
  EXPECT_GT(conflicts, 30u);  // nearly every repeat miss is a conflict
}

// --- LRU stamp wrap ------------------------------------------------------
//
// The 32-bit recency stamps renormalize (order-preserving) when the counter
// reaches UINT32_MAX. These tests force the counter to the boundary via the
// debug hook and prove the replacement order across the wrap is exactly the
// order of an identical cache whose counter is nowhere near it.

TEST(Cache, StampWrapPreservesExactRecencyOrder) {
  // Twin caches, identical access sequence; `forced` crosses the wrap
  // boundary mid-sequence. Every access outcome and every victim choice
  // must match the unforced twin.
  Cache forced(tiny_cache(4));
  Cache normal(tiny_cache(4));
  const std::uint64_t set_span = 4 * 32;  // assoc-4, 2 sets of 32B blocks
  // Fill one set with 4 blocks in a known recency order: a b c d.
  const Addr a = 0x000, b = a + 2 * set_span, c = a + 4 * set_span,
             d = a + 6 * set_span, e = a + 8 * set_span;
  for (Addr x : {a, b, c, d}) {
    forced.fill(x, false);
    normal.fill(x, false);
  }
  // Park the forced twin's counter so the second touch renormalizes.
  forced.debug_set_stamp(std::numeric_limits<std::uint32_t>::max() - 1);
  // Touch a and b across the boundary: recency becomes c d a b.
  for (Addr x : {a, b}) {
    EXPECT_TRUE(forced.access(x, false));
    EXPECT_TRUE(normal.access(x, false));
  }
  // Renormalization ranks the 8 blocks 1..8 and continues from there.
  EXPECT_LT(forced.debug_stamp(), 20u) << "counter must have wrapped";
  // Both twins must now victimize c (the true LRU), not a or b.
  EXPECT_EQ(forced.victim_for(e), normal.victim_for(e));
  EXPECT_EQ(forced.victim_for(e), forced.block_base_of(c));
  // And the stamps must be strictly distinct after renormalization —
  // a collapsed (all-equal) stamp set would also "pass" a single victim
  // probe by accident of scan order.
  std::vector<std::uint32_t> stamps;
  for (Addr x : {a, b, c, d}) {
    const auto s = forced.debug_lru_of(x);
    ASSERT_TRUE(s.has_value());
    stamps.push_back(*s);
  }
  std::sort(stamps.begin(), stamps.end());
  EXPECT_TRUE(std::adjacent_find(stamps.begin(), stamps.end()) ==
              stamps.end())
      << "renormalized stamps must stay strictly ordered";
  // Continue past the wrap with fresh blocks: each fill must evict the
  // same victim in both twins (c, then d, then a — exact LRU order).
  const Addr f = a + 10 * set_span, g = a + 12 * set_span;
  const Addr expected_victims[] = {c, d, a};
  int vi = 0;
  for (Addr x : {e, f, g}) {
    const auto fv = forced.fill(x, false);
    const auto nv = normal.fill(x, false);
    ASSERT_TRUE(fv.has_value());
    ASSERT_TRUE(nv.has_value());
    EXPECT_EQ(fv->block_addr, nv->block_addr);
    EXPECT_EQ(fv->block_addr, forced.block_base_of(expected_victims[vi++]));
  }
}

TEST(Cache, StampWrapLockstepUnderRandomTraffic) {
  // Differential fuzz across the boundary: thousands of mixed accesses and
  // fills, every hit/miss and eviction compared against the unforced twin.
  Cache forced(tiny_cache(4));
  Cache normal(tiny_cache(4));
  forced.debug_set_stamp(std::numeric_limits<std::uint32_t>::max() - 500);
  Rng rng(0xace5);
  for (int i = 0; i < 4000; ++i) {
    const Addr addr = (rng.next() % 64) * 32;  // 64 blocks over 2 sets
    const bool write = (rng.next() & 1) != 0;
    const bool fh = forced.access(addr, write);
    const bool nh = normal.access(addr, write);
    ASSERT_EQ(fh, nh) << "hit/miss diverged at access " << i;
    if (!fh) {
      const auto fe = forced.fill(addr, write);
      const auto ne = normal.fill(addr, write);
      ASSERT_EQ(fe.has_value(), ne.has_value()) << "eviction diverged " << i;
      if (fe.has_value()) {
        ASSERT_EQ(fe->block_addr, ne->block_addr) << "victim diverged " << i;
        ASSERT_EQ(fe->dirty, ne->dirty) << "dirtiness diverged " << i;
      }
    }
  }
  EXPECT_EQ(forced.demand_stats().hits, normal.demand_stats().hits);
  EXPECT_EQ(forced.writebacks(), normal.writebacks());
}

TEST(Tlb, StampWrapPreservesExactRecencyOrder) {
  // Same differential scheme for the TLB's independent stamp counter.
  TlbConfig cfg{.name = "t", .entries = 8, .assoc = 4, .page_size = 4096,
                .miss_penalty = 30};
  Tlb forced(cfg);
  Tlb normal(cfg);
  forced.debug_set_stamp(std::numeric_limits<std::uint32_t>::max() - 100);
  Rng rng(0x71b);
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = (rng.next() % 12) * 4096 * 2;  // 12 pages, one set
    const Cycle fc = forced.access(addr);
    const Cycle nc = normal.access(addr);
    ASSERT_EQ(fc, nc) << "hit/miss diverged at access " << i;
  }
  EXPECT_LT(forced.debug_stamp(), 3000u) << "counter must have wrapped";
  EXPECT_EQ(forced.stats().hits, normal.stats().hits);
  EXPECT_EQ(forced.stats().misses, normal.stats().misses);
}

// Randomized oracle for the plain set-associative cache: a cache with
// assoc == blocks must match an exact LRU reference model on any trace.
TEST(CacheOracle, FullyAssociativeMatchesReferenceLru) {
  constexpr std::uint32_t kBlocks = 16;
  Cache c(CacheConfig{.name = "fa",
                      .size_bytes = kBlocks * 32,
                      .assoc = kBlocks,
                      .block_size = 32,
                      .latency = 1});
  std::vector<Addr> lru;  // back = most recent (reference model)
  Rng rng(23);
  for (int k = 0; k < 50000; ++k) {
    const Addr frame = rng.below(64);
    const Addr addr = frame * 32;
    const bool model_hit =
        std::find(lru.begin(), lru.end(), frame) != lru.end();
    const bool cache_hit = c.access(addr, false);
    ASSERT_EQ(cache_hit, model_hit) << "at access " << k;
    if (!cache_hit) c.fill(addr, false);
    // Update reference LRU.
    if (model_hit) lru.erase(std::find(lru.begin(), lru.end(), frame));
    lru.push_back(frame);
    if (lru.size() > kBlocks) lru.erase(lru.begin());
  }
}

}  // namespace
}  // namespace selcache::memsys
