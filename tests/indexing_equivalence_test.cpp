// Shift/mask indexing must agree with the reference div/mod formulas for
// every cache, TLB, and MAT geometry the experiments actually use — the
// hot-path optimization is only legal because these are equal everywhere —
// and every table refuses, when built, a geometry where they would differ.
#include <gtest/gtest.h>

#include "core/machine_config.h"
#include "hw/bypass_buffer.h"
#include "hw/mat.h"
#include "hw/sldt.h"
#include "hw/stride_prefetcher.h"
#include "memsys/miss_classifier.h"
#include "memsys/victim_cache.h"
#include "support/rng.h"

namespace selcache {
namespace {

std::vector<memsys::CacheConfig> all_experiment_cache_configs() {
  std::vector<memsys::CacheConfig> cfgs;
  for (const auto& m : core::all_machines()) {
    cfgs.push_back(m.hierarchy.l1d);
    cfgs.push_back(m.hierarchy.l1i);
    cfgs.push_back(m.hierarchy.l2);
  }
  return cfgs;
}

TEST(IndexingEquivalence, EveryMachineCacheConfigMatchesDivMod) {
  Rng rng(0x1d3aULL);
  for (const auto& cfg : all_experiment_cache_configs()) {
    memsys::Cache c(cfg);
    SCOPED_TRACE(cfg.name + " " + std::to_string(cfg.size_bytes) + "B/" +
                 std::to_string(cfg.assoc) + "w/" +
                 std::to_string(cfg.block_size) + "B");
    // Structured addresses: set boundaries, block boundaries, wrap points.
    for (Addr a = 0; a < 64 * cfg.block_size; ++a)
      ASSERT_EQ(c.set_index(a), (a / cfg.block_size) % cfg.num_sets());
    // Random addresses across a large range.
    for (int i = 0; i < 20000; ++i) {
      const Addr a = rng.below(Addr{1} << 32);
      ASSERT_EQ(c.set_index(a), (a / cfg.block_size) % cfg.num_sets());
    }
  }
}

TEST(IndexingEquivalence, TlbSetsMatchDivModViaBehavior) {
  // Two TLBs with the same geometry, one driven through addresses computed
  // with the reference formulas: hit/miss streams must coincide.
  for (const auto& m : core::all_machines()) {
    for (const auto& tcfg : {m.hierarchy.dtlb, m.hierarchy.itlb}) {
      memsys::Tlb t(tcfg);
      Rng rng(tcfg.entries);
      std::uint64_t penalty = 0, reference_penalty = 0;
      // Reference model: direct map of resident vpns per set (assoc-way LRU).
      // Rather than re-implement LRU, exploit that page residency questions
      // on a fresh TLB with <= assoc distinct pages per set are exact.
      const std::uint64_t sets = tcfg.entries / tcfg.assoc;
      for (std::uint32_t k = 0; k < tcfg.assoc; ++k) {
        // Pages k*sets, (k+1)*sets, ... all land in set 0 by the reference
        // formula; with `assoc` of them the set never overflows.
        const Addr page = static_cast<Addr>(k) * sets;
        penalty += t.access(page * tcfg.page_size);
      }
      reference_penalty =
          static_cast<std::uint64_t>(tcfg.assoc) * tcfg.miss_penalty;
      EXPECT_EQ(penalty, reference_penalty);
      // Every one of them must still be resident (no aliasing mix-ups).
      for (std::uint32_t k = 0; k < tcfg.assoc; ++k)
        EXPECT_TRUE(t.probe(static_cast<Addr>(k) * sets * tcfg.page_size));
    }
  }
}

TEST(IndexingEquivalence, MatFrequencyUnchangedByShiftIndexing) {
  hw::Mat mat(hw::MatConfig{});  // paper geometry: 4096 entries, 1 KB blocks
  const auto& cfg = mat.config();
  Rng rng(0xabcdULL);
  for (int i = 0; i < 5000; ++i) {
    const Addr a = rng.below(Addr{1} << 30);
    const std::uint32_t before = mat.frequency(a);
    mat.touch(a);
    // Reference formulas: same macro-block => same counter cell.
    const Addr mb = a / cfg.macro_block_size;
    const Addr same_mb_addr = mb * cfg.macro_block_size +
                              rng.below(cfg.macro_block_size);
    ASSERT_EQ(mat.frequency(same_mb_addr), before + 1);
  }
}

/// Each table checks its geometry once, at construction: a size that is
/// not a power of two throws instead of indexing by division.
TEST(IndexingEquivalence, EveryTableRejectsASizeThatIsNotAPowerOfTwo) {
  using memsys::CacheConfig;
  using memsys::TlbConfig;
  EXPECT_THROW(memsys::Cache(CacheConfig{.size_bytes = 24 * 1024}),
               std::logic_error);
  EXPECT_THROW(memsys::Cache(CacheConfig{.block_size = 24}), std::logic_error);
  EXPECT_THROW(memsys::Tlb(TlbConfig{.entries = 12, .assoc = 4}),
               std::logic_error);  // 3 sets
  EXPECT_THROW(memsys::Tlb(TlbConfig{.page_size = 3000}), std::logic_error);
  EXPECT_THROW(hw::Mat(hw::MatConfig{.entries = 3000}), std::logic_error);
  EXPECT_THROW(hw::Mat(hw::MatConfig{.macro_block_size = 1000}),
               std::logic_error);
  EXPECT_THROW(hw::Mat(hw::MatConfig{.decay_interval = 1000}),
               std::logic_error);
  EXPECT_NO_THROW(hw::Mat(hw::MatConfig{.decay_interval = 0}));  // no decay
  EXPECT_THROW(hw::Sldt(hw::SldtConfig{.entries = 100}), std::logic_error);
  EXPECT_THROW(hw::Sldt(hw::SldtConfig{.block_size = 24}), std::logic_error);
  EXPECT_THROW(hw::Sldt(hw::SldtConfig{.macro_block_size = 1000}),
               std::logic_error);
  EXPECT_THROW(hw::Sldt(hw::SldtConfig{.counter_entries = 1000}),
               std::logic_error);
  EXPECT_THROW(hw::BypassBuffer(64, 12), std::logic_error);
  EXPECT_THROW(memsys::VictimCache("v", 4, 24), std::logic_error);
  EXPECT_THROW(hw::StridePrefetcher({.block_size = 24}), std::logic_error);
  EXPECT_THROW(memsys::MissClassifier(16, 24), std::logic_error);
}

}  // namespace
}  // namespace selcache
