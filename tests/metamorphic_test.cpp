// Metamorphic properties of the simulator, checked through plain
// interpreted run_version calls — no tape, no store, no shared pricing — so
// a bug shared by every engine path still shows:
//   * main-memory latency changes cycles, never the structure: every
//     counter outside cpu.* (plus cpu.instructions) is identical at 100 and
//     at 300 cycles, under the bypass and the victim scheme;
//   * the hardware scheme (none, bypass, victim) never changes the
//     instruction count or the L1 demand accesses — the scheme invariance
//     the tape key rests on.
// One pointer-chasing, one indexed and one array code, all five versions.
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

INSTANTIATE_TEST_SUITE_P(PointerIndexArray, Metamorphic,
                         ::testing::Values("Perl", "Chaos", "Mgrid"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace selcache::core
