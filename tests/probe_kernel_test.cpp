// The probe kernels' contract: the kernels this build compiled (SSE2 on
// x86-64) and the portable scalar kernels implement the exact same
// first-match / first-free / min-LRU semantics on the shared 16-byte slot
// layout, so the build target can never change which way a probe hits or
// which way a miss fills. The tests check both paths against a reference
// on randomized sets and on the edge geometries the hot path never
// stresses (odd associativity tails, invalid slots with stale matching
// keys, UINT32_MAX LRU stamps).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "memsys/probe_kernels.h"

namespace selcache::memsys::kernels {
namespace {

/// Local mirror of the shared slot layout (Cache::Block / Tlb::Entry are
/// private to their classes; the kernels only see bytes anyway).
struct Slot {
  std::uint64_t key = 0;
  std::uint32_t lru = 0;
  bool valid = false;
  bool dirty = false;
};
static_assert(sizeof(Slot) == kSlotBytes);
static_assert(offsetof(Slot, key) == kSlotKeyOff);
static_assert(offsetof(Slot, lru) == kSlotLruOff);
static_assert(offsetof(Slot, valid) == kSlotValidOff);

/// Reference implementation: one obvious pass, no cleverness.
std::uint32_t ref_match(const std::vector<Slot>& set, std::uint64_t key) {
  for (std::uint32_t w = 0; w < set.size(); ++w)
    if (set[w].valid && set[w].key == key) return w;
  return kNoWay;
}

VictimWay ref_victim(const std::vector<Slot>& set) {
  for (std::uint32_t w = 0; w < set.size(); ++w)
    if (!set[w].valid) return {.way = w, .free = true};
  std::uint32_t best = 0;
  for (std::uint32_t w = 1; w < set.size(); ++w)
    if (set[w].lru < set[best].lru) best = w;
  return {.way = best, .free = false};
}

std::uint32_t scalar_match(const std::vector<Slot>& set, std::uint64_t key) {
  return detail::match_way_scalar(
      reinterpret_cast<const unsigned char*>(set.data()),
      static_cast<std::uint32_t>(set.size()), key);
}

/// Both probe paths: this build's probe_way, and the scalar composition
/// every target without SSE2 runs (match_way_scalar, then victim_way).
std::array<ProbeResult, 2> probe_both(const std::vector<Slot>& set,
                                      std::uint64_t key) {
  const auto n = static_cast<std::uint32_t>(set.size());
  ProbeResult scalar;
  if (const std::uint32_t w = scalar_match(set, key); w != kNoWay) {
    scalar = {.hit = true, .way = w};
  } else {
    const VictimWay v = victim_way(set.data(), n);
    scalar = {.way = v.way, .free = v.free};
  }
  return {probe_way(set.data(), n, key), scalar};
}

/// Random set with key collisions likely (small key range), a mix of valid
/// and invalid slots, and strictly distinct LRU stamps among the valid
/// slots (the invariant Cache/Tlb maintain via their bump counters).
std::vector<Slot> random_set(std::mt19937_64& rng, std::uint32_t n) {
  std::uniform_int_distribution<std::uint64_t> key(0, 7);
  std::uniform_int_distribution<int> coin(0, 9);
  std::vector<std::uint32_t> stamps(n);
  for (std::uint32_t w = 0; w < n; ++w) stamps[w] = w + 1;
  std::shuffle(stamps.begin(), stamps.end(), rng);
  std::vector<Slot> set(n);
  for (std::uint32_t w = 0; w < n; ++w) {
    set[w].key = key(rng);
    set[w].lru = stamps[w];
    set[w].valid = coin(rng) < 7;
  }
  return set;
}

TEST(ProbeKernels, MatchWayAgreesWithReferenceOnBothPaths) {
  std::mt19937_64 rng(0xC0FFEE);
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u}) {
    for (int trial = 0; trial < 500; ++trial) {
      const std::vector<Slot> set = random_set(rng, n);
      for (std::uint64_t key = 0; key < 9; ++key) {
        const std::uint32_t want = ref_match(set, key);
        EXPECT_EQ(match_way(set.data(), n, key), want) << "build n=" << n;
        EXPECT_EQ(scalar_match(set, key), want) << "scalar n=" << n;
      }
    }
  }
}

TEST(ProbeKernels, VictimWayAgreesWithReference) {
  std::mt19937_64 rng(0xBADF00D);
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (int trial = 0; trial < 500; ++trial) {
      const std::vector<Slot> set = random_set(rng, n);
      const VictimWay want = ref_victim(set);
      const VictimWay got = victim_way(set.data(), n);
      EXPECT_EQ(got.way, want.way) << "n=" << n;
      EXPECT_EQ(got.free, want.free) << "n=" << n;
    }
  }
}

/// probe_way is the fused demand-path scan: on every input it must equal
/// the composition of match_way and victim_way — on both paths.
TEST(ProbeKernels, ProbeWayEqualsComposedKernelsOnBothPaths) {
  std::mt19937_64 rng(0x5EED);
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (int trial = 0; trial < 500; ++trial) {
      const std::vector<Slot> set = random_set(rng, n);
      for (std::uint64_t key = 0; key < 9; ++key) {
        const std::uint32_t mw = ref_match(set, key);
        const VictimWay vw = ref_victim(set);
        for (const ProbeResult& pr : probe_both(set, key)) {
          if (mw != kNoWay) {
            EXPECT_TRUE(pr.hit);
            EXPECT_EQ(pr.way, mw);
          } else {
            EXPECT_FALSE(pr.hit);
            EXPECT_EQ(pr.way, vw.way);
            EXPECT_EQ(pr.free, vw.free);
          }
        }
      }
    }
  }
}

/// A stale key in an invalidated slot must never count as a hit — and that
/// freed slot is exactly where the subsequent fill lands.
TEST(ProbeKernels, InvalidSlotWithMatchingKeyIsAMissIntoThatSlot) {
  std::vector<Slot> set(4);
  for (std::uint32_t w = 0; w < 4; ++w)
    set[w] = {.key = 0x40 + w, .lru = w + 1, .valid = true};
  set[2].valid = false;  // invalidate, key 0x42 left behind
  EXPECT_EQ(match_way(set.data(), 4, 0x42), kNoWay);
  EXPECT_EQ(scalar_match(set, 0x42), kNoWay);
  for (const ProbeResult& pr : probe_both(set, 0x42)) {
    EXPECT_FALSE(pr.hit);
    EXPECT_TRUE(pr.free);
    EXPECT_EQ(pr.way, 2u);
  }
}

/// First-free beats min-LRU, and among several invalid ways the FIRST wins
/// (fill() scans in way order; the kernels must agree with it exactly).
TEST(ProbeKernels, FirstInvalidWayWinsOverLowerLru) {
  std::vector<Slot> set(4);
  set[0] = {.key = 1, .lru = 10, .valid = true};
  set[1] = {.key = 2, .lru = 0, .valid = false};
  set[2] = {.key = 3, .lru = 1, .valid = true};  // lowest valid stamp
  set[3] = {.key = 4, .lru = 0, .valid = false};
  for (const ProbeResult& pr : probe_both(set, 99)) {
    EXPECT_FALSE(pr.hit);
    EXPECT_TRUE(pr.free);
    EXPECT_EQ(pr.way, 1u) << "first invalid way, not the lowest-LRU one";
  }
}

/// UINT32_MAX is a legal stamp, not a sentinel: a full set where one way
/// carries it must still pick the true minimum (victim_way widens its best
/// tracker to 64 bits precisely so this cannot collide).
TEST(ProbeKernels, MaxLruStampIsNotASentinel) {
  std::vector<Slot> set(4);
  set[0] = {.key = 1, .lru = 0xFFFFFFFFu, .valid = true};
  set[1] = {.key = 2, .lru = 7, .valid = true};
  set[2] = {.key = 3, .lru = 5, .valid = true};
  set[3] = {.key = 4, .lru = 6, .valid = true};
  const VictimWay v = victim_way(set.data(), 4);
  EXPECT_FALSE(v.free);
  EXPECT_EQ(v.way, 2u);
  for (const ProbeResult& pr : probe_both(set, 99)) {
    EXPECT_FALSE(pr.hit);
    EXPECT_FALSE(pr.free);
    EXPECT_EQ(pr.way, 2u);
  }

  // And the all-max corner: every stamp equal picks way 0 on both paths.
  for (Slot& s : set) s.lru = 0xFFFFFFFFu;
  for (const ProbeResult& pr : probe_both(set, 99)) EXPECT_EQ(pr.way, 0u);
}

}  // namespace
}  // namespace selcache::memsys::kernels
