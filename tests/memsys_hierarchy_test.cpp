// Integration tests for the two-level hierarchy: latency composition,
// write-allocate semantics, instruction path, miss classification.
#include <gtest/gtest.h>

#include "hw/bypass_scheme.h"
#include "hw/victim_scheme.h"
#include "memsys/hierarchy.h"
#include "support/rng.h"

namespace selcache::memsys {
namespace {

HierarchyConfig small_config() {
  HierarchyConfig cfg;
  cfg.l1d = {.name = "l1d", .size_bytes = 1024, .assoc = 2, .block_size = 32,
             .latency = 2};
  cfg.l1i = {.name = "l1i", .size_bytes = 1024, .assoc = 2, .block_size = 32,
             .latency = 2};
  cfg.l2 = {.name = "l2", .size_bytes = 8192, .assoc = 4, .block_size = 128,
            .latency = 10};
  cfg.dtlb = {.name = "dtlb", .entries = 64, .assoc = 4, .page_size = 4096,
              .miss_penalty = 30};
  cfg.itlb = {.name = "itlb", .entries = 64, .assoc = 4, .page_size = 4096,
              .miss_penalty = 30};
  cfg.mem = {.access_latency = 100, .bus_width = 8};
  return cfg;
}

TEST(Hierarchy, ColdMissPaysFullPath) {
  Hierarchy h(small_config());
  // TLB miss 30 + L1 2 + L2 10 + memory(128B) 100+15.
  EXPECT_EQ(h.access(0x0, AccessKind::Load), 30u + 2 + 10 + 115);
}

TEST(Hierarchy, L1HitIsCheap) {
  Hierarchy h(small_config());
  h.access(0x0, AccessKind::Load);
  EXPECT_EQ(h.access(0x8, AccessKind::Load), 2u);  // same block, same page
}

TEST(Hierarchy, L2HitSkipsMemory) {
  Hierarchy h(small_config());
  h.access(0x0, AccessKind::Load);  // fills both levels (and dtlb page)
  // Evict the L1 block with two conflicting fills (L1: 16 sets... compute
  // set stride = 1024B/2-way/32B = 16 sets -> stride 512B).
  h.access(0x0 + 512, AccessKind::Load);
  h.access(0x0 + 1024, AccessKind::Load);
  // 0x0 now out of L1 but still in L2 (same 128B L2 block as 0..127).
  const Cycle lat = h.access(0x0, AccessKind::Load);
  EXPECT_EQ(lat, 2u + 10u);
}

TEST(Hierarchy, StoreAllocatesAndWritesBack) {
  Hierarchy h(small_config());
  h.access(0x0, AccessKind::Store);
  EXPECT_TRUE(h.l1d().probe(0x0));
  // Evict the dirty block: writeback counter increments.
  h.access(0x0 + 512, AccessKind::Store);
  h.access(0x0 + 1024, AccessKind::Store);
  EXPECT_EQ(h.l1d().writebacks(), 1u);
}

TEST(Hierarchy, IFetchUsesInstructionPath) {
  Hierarchy h(small_config());
  // ITLB miss 30 + L1I 2 + L2 10 + memory(128B) 100+15.
  EXPECT_EQ(h.access(0x400000, AccessKind::IFetch), 30u + 2 + 10 + 115);
  EXPECT_TRUE(h.l1i().probe(0x400000));
  EXPECT_FALSE(h.l1d().probe(0x400000));
  EXPECT_EQ(h.itlb().stats().misses, 1u);
  EXPECT_EQ(h.dtlb().stats().misses, 0u);
  EXPECT_EQ(h.access(0x400004, AccessKind::IFetch), 2u);
}

TEST(Hierarchy, CombinedMissRateMixesBothL1s) {
  Hierarchy h(small_config());
  h.access(0, AccessKind::Load);      // D miss
  h.access(0, AccessKind::Load);      // D hit
  h.access(0x400000, AccessKind::IFetch);  // I miss
  EXPECT_NEAR(h.l1_miss_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Hierarchy, ClassifierTracksL1DMisses) {
  HierarchyConfig cfg = small_config();
  cfg.classify_misses = true;
  Hierarchy h(cfg);
  h.access(0, AccessKind::Load);
  h.access(64, AccessKind::Load);
  ASSERT_NE(h.classifier(), nullptr);
  EXPECT_EQ(h.classifier()->compulsory(), 2u);
}

TEST(Hierarchy, ExportStatsHasAllComponents) {
  Hierarchy h(small_config());
  h.access(0, AccessKind::Load);
  h.access(0x400000, AccessKind::IFetch);
  StatSet s;
  h.export_stats(s);
  for (const char* key : {"l1d.misses", "l1i.misses", "l2.misses",
                          "dtlb.misses", "itlb.misses", "mem.reads"})
    EXPECT_TRUE(s.has(key)) << key;
}

TEST(Hierarchy, MoreWaysNeverMoreMisses) {
  // Property: adding ways at a fixed set count cannot increase the L1D miss
  // count on any trace (per-set LRU stack inclusion).
  auto run = [](std::uint64_t l1_size, std::uint32_t assoc) {
    HierarchyConfig cfg = small_config();
    cfg.l1d.size_bytes = l1_size;
    cfg.l1d.assoc = assoc;
    Hierarchy h(cfg);
    Rng rng(99);
    for (int i = 0; i < 20000; ++i)
      h.access(rng.below(1 << 15), rng.chance(0.25) ? AccessKind::Store
                                                    : AccessKind::Load);
    return h.l1d().demand_stats().misses;
  };
  const auto small = run(1024, 2);   // 16 sets x 2 ways
  const auto medium = run(2048, 4);  // 16 sets x 4 ways
  const auto large = run(4096, 8);   // 16 sets x 8 ways
  EXPECT_GE(small, medium);
  EXPECT_GE(medium, large);
}

/// The stream side is all a ride's Hierarchies share. Two Hierarchies on
/// one StreamSide, driven the way a ride drives them (the stream side's
/// step once, then each hierarchy's own part), match two standalone
/// Hierarchies access for access while a bypass scheme toggles on one of
/// them and a victim scheme stays on in the other. Half-way a third one
/// forks from the first (a copy shares the stream side) and matches a copy
/// of the standalone first.
TEST(Hierarchy, SharedStreamSideMatchesStandaloneHierarchies) {
  const HierarchyConfig cfg = small_config();
  StreamSide stream(cfg);
  Hierarchy bypassed(cfg, &stream), victim(cfg, &stream);
  Hierarchy solo_bypassed(cfg), solo_victim(cfg);
  hw::BypassScheme bypass((hw::BypassSchemeConfig()));
  hw::BypassScheme solo_bypass((hw::BypassSchemeConfig()));
  hw::VictimScheme vc((hw::VictimSchemeConfig())),
      solo_vc((hw::VictimSchemeConfig()));
  vc.set_active(true);
  solo_vc.set_active(true);
  bypassed.attach_hw(&bypass);
  solo_bypassed.attach_hw(&solo_bypass);
  victim.attach_hw(&vc);
  solo_victim.attach_hw(&solo_vc);

  struct Pair {
    Hierarchy* shared;
    Hierarchy* solo;
  };
  std::vector<Pair> pairs = {{&bypassed, &solo_bypassed},
                             {&victim, &solo_victim}};
  std::optional<Hierarchy> fork, solo_fork;
  std::unique_ptr<HwScheme> fork_scheme, solo_fork_scheme;

  Rng rng(31);
  constexpr int kAccesses = 60000;
  for (int i = 0; i < kAccesses; ++i) {
    if (i == kAccesses / 2) {
      fork.emplace(bypassed);
      solo_fork.emplace(solo_bypassed);
      fork_scheme = bypass.clone();
      solo_fork_scheme = solo_bypass.clone();
      fork->attach_hw(fork_scheme.get());
      solo_fork->attach_hw(solo_fork_scheme.get());
      pairs.push_back({&*fork, &*solo_fork});
    }
    if (rng.chance(0.002)) {
      const bool on = !bypass.active();
      bypass.set_active(on);
      solo_bypass.set_active(on);
    }
    const std::uint64_t r = rng.below(100);
    const AccessKind kind = r < 20   ? AccessKind::IFetch
                            : r < 40 ? AccessKind::Store
                                     : AccessKind::Load;
    const Addr addr = kind == AccessKind::IFetch
                          ? 0x400000 + rng.below(64 * 1024)
                          : (rng.chance(0.7) ? rng.below(16 * 1024)
                                             : 0x1000000 + rng.below(1 << 20));
    std::vector<Cycle> shared;
    if (kind == AccessKind::IFetch) {
      const StreamSide::Fetch f = stream.fetch(addr);
      for (const Pair& p : pairs) shared.push_back(p.shared->fetch(addr, f));
    } else {
      const Cycle tlb = stream.translate(addr);
      for (const Pair& p : pairs)
        shared.push_back(
            p.shared->data(addr, kind == AccessKind::Store, tlb));
    }
    for (std::size_t k = 0; k < pairs.size(); ++k)
      ASSERT_EQ(shared[k], pairs[k].solo->access(addr, kind))
          << "hierarchy " << k << ", access " << i;
  }

  for (const Pair& p : pairs) {
    StatSet a, b;
    p.shared->export_stats(a);
    p.solo->export_stats(b);
    EXPECT_EQ(a.all(), b.all());
    EXPECT_EQ(p.shared->l1_miss_rate(), p.solo->l1_miss_rate());
    EXPECT_EQ(p.shared->l2_miss_rate(), p.solo->l2_miss_rate());
  }
  // The stream exercised what sharing has to get right: both schemes acted
  // and the hierarchies' own parts went apart, on one stream side.
  StatSet b, v;
  bypassed.export_stats(b);
  victim.export_stats(v);
  EXPECT_GT(b.get("bypass.bypasses"), 0u);
  EXPECT_GT(v.get("victim_l1.hits"), 0u);
  EXPECT_NE(b.get("l1d.misses"), v.get("l1d.misses"));
  EXPECT_GT(b.get("l1i.misses"), 0u);
  EXPECT_GT(b.get("itlb.misses"), 0u);
  EXPECT_EQ(b.get("dtlb.misses"), v.get("dtlb.misses"));
  EXPECT_EQ(&bypassed.l1i(), &fork->l1i());
}

}  // namespace
}  // namespace selcache::memsys
