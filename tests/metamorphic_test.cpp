// Metamorphic properties of the simulator, checked through plain
// interpreted run_version calls — no tape, no store, no shared pricing — so
// a bug shared by every engine path still shows:
//   * main-memory latency changes cycles, never the structure: every
//     counter outside cpu.* (plus cpu.instructions) is identical at 100 and
//     at 300 cycles, under the bypass and the victim scheme;
//   * the hardware scheme (none, bypass, victim) never changes the
//     instruction count or the L1 demand accesses — the scheme invariance
//     the tape key rests on;
//   * LRU inclusion: without a scheme, L1 caches with twice the ways over
//     the same sets never miss more than the base machine's.
// One pointer-chasing, one indexed and one array code.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/runner.h"

namespace selcache::core {
namespace {

RunResult run_at(const workloads::WorkloadInfo& w, Version v,
                 hw::SchemeKind scheme, Cycle mem_latency) {
  MachineConfig m = base_machine();
  m.hierarchy.mem.access_latency = mem_latency;
  RunOptions opt;
  opt.scheme = scheme;
  return run_version(w, m, v, opt);
}

/// The counters memory latency must not move: everything outside cpu.*,
/// plus cpu.instructions.
std::map<std::string, std::uint64_t> structural(const StatSet& s) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : s.all())
    if (!key.starts_with("cpu.") || key == "cpu.instructions")
      out.emplace(key, value);
  return out;
}

std::uint64_t demand_accesses(const StatSet& s, const std::string& cache) {
  return s.get(cache + ".hits") + s.get(cache + ".misses");
}

class Metamorphic : public ::testing::TestWithParam<const char*> {};

TEST_P(Metamorphic, LatencyMovesOnlyCyclesAndSchemeKeepsTheStream) {
  const workloads::WorkloadInfo& w = workloads::workload(GetParam());
  for (Version v : kAllVersions) {
    SCOPED_TRACE(to_string(v));
    const RunResult plain = run_at(w, v, hw::SchemeKind::None, 100);
    for (hw::SchemeKind scheme :
         {hw::SchemeKind::Bypass, hw::SchemeKind::Victim}) {
      SCOPED_TRACE(hw::to_string(scheme));
      const RunResult fast = run_at(w, v, scheme, 100);
      const RunResult slow = run_at(w, v, scheme, 300);
      EXPECT_GT(fast.stats.get("mem.reads"), 0u);
      EXPECT_LT(fast.cycles, slow.cycles);
      EXPECT_EQ(structural(fast.stats), structural(slow.stats));

      EXPECT_EQ(fast.instructions, plain.instructions);
      EXPECT_EQ(demand_accesses(fast.stats, "l1d"),
                demand_accesses(plain.stats, "l1d"));
      EXPECT_EQ(demand_accesses(fast.stats, "l1i"),
                demand_accesses(plain.stats, "l1i"));
    }
  }
}

/// Doubling an L1's size and ways keeps its set count, so under LRU each
/// wider set holds the eight most recently used blocks that map to it where
/// the base set holds four: every base hit is a hit in the wider cache.
/// Base and PureSoftware build no scheme, so nothing but LRU decides what
/// the L1s keep.
TEST_P(Metamorphic, DoubledL1WaysNeverAddMisses) {
  const workloads::WorkloadInfo& w = workloads::workload(GetParam());
  MachineConfig wide = base_machine();
  for (memsys::CacheConfig* c : {&wide.hierarchy.l1d, &wide.hierarchy.l1i}) {
    c->size_bytes *= 2;
    c->assoc *= 2;
  }
  for (Version v : {Version::Base, Version::PureSoftware}) {
    SCOPED_TRACE(to_string(v));
    const RunResult base = run_version(w, base_machine(), v);
    const RunResult wider = run_version(w, wide, v);
    for (const char* cache : {"l1d", "l1i"}) {
      SCOPED_TRACE(cache);
      EXPECT_EQ(demand_accesses(wider.stats, cache),
                demand_accesses(base.stats, cache));
      EXPECT_LE(wider.stats.get(std::string(cache) + ".misses"),
                base.stats.get(std::string(cache) + ".misses"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PointerIndexArray, Metamorphic,
                         ::testing::Values("Perl", "Chaos", "Mgrid"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace selcache::core
