// Tests for the core framework: machine configurations (Table 1 + §5
// variations), version preparation (§4.4 code products), scheme factory,
// and the experiment runner.
#include <gtest/gtest.h>

#include "analysis/marker_elimination.h"
#include "codegen/trace_engine.h"
#include "core/report.h"
#include "core/runner.h"
#include "ir/builder.h"

namespace selcache::core {
namespace {

TEST(MachineConfig, Table1Baseline) {
  const MachineConfig m = base_machine();
  EXPECT_EQ(m.cpu.issue_width, 4u);
  EXPECT_EQ(m.hierarchy.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(m.hierarchy.l1d.assoc, 4u);
  EXPECT_EQ(m.hierarchy.l1d.block_size, 32u);
  EXPECT_EQ(m.hierarchy.l1d.latency, 2u);
  EXPECT_EQ(m.hierarchy.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(m.hierarchy.l2.block_size, 128u);
  EXPECT_EQ(m.hierarchy.l2.latency, 10u);
  EXPECT_EQ(m.hierarchy.mem.access_latency, 100u);
  EXPECT_EQ(m.hierarchy.mem.bus_width, 8u);
  EXPECT_EQ(m.cpu.memory_ports, 2u);
  EXPECT_EQ(m.cpu.ruu_entries, 64u);
  EXPECT_EQ(m.cpu.lsq_entries, 32u);
  EXPECT_EQ(m.cpu.bimodal_entries, 2048u);
}

TEST(MachineConfig, VariationsDifferOnlyWhereStated) {
  EXPECT_EQ(higher_mem_latency().hierarchy.mem.access_latency, 200u);
  EXPECT_EQ(larger_l2().hierarchy.l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(larger_l1().hierarchy.l1d.size_bytes, 64u * 1024);
  EXPECT_EQ(higher_l2_assoc().hierarchy.l2.assoc, 8u);
  EXPECT_EQ(higher_l1_assoc().hierarchy.l1d.assoc, 8u);
  // Unrelated parameters stay at Table 1 values.
  EXPECT_EQ(higher_mem_latency().hierarchy.l2.size_bytes, 512u * 1024);
  EXPECT_EQ(larger_l2().hierarchy.mem.access_latency, 100u);
  EXPECT_EQ(all_machines().size(), 6u);
}

TEST(Versions, NamesAndHwPolicy) {
  EXPECT_STREQ(to_string(Version::Selective), "Selective");
  EXPECT_TRUE(hw_always_on(Version::PureHardware));
  EXPECT_TRUE(hw_always_on(Version::Combined));
  EXPECT_FALSE(hw_always_on(Version::Selective));
  EXPECT_FALSE(hw_always_on(Version::PureSoftware));
}

TEST(Versions, MakeSchemeKinds) {
  const MachineConfig m = base_machine();
  EXPECT_EQ(make_scheme(hw::SchemeKind::None, m), nullptr);
  auto bypass = make_scheme(hw::SchemeKind::Bypass, m);
  ASSERT_NE(bypass, nullptr);
  EXPECT_EQ(bypass->name(), "bypass");
  auto victim = make_scheme(hw::SchemeKind::Victim, m);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->name(), "victim");
}

ir::Program mixed_demo() {
  ir::ProgramBuilder b("demo");
  const auto A = b.array("A", {96, 96});
  const auto H = b.chase_pool("H", 2048, 32);
  b.begin_loop("t", 0, 2);
  {
    const auto j = b.begin_loop("j", 0, 96);
    const auto i = b.begin_loop("i", 0, 96);
    b.stmt({ir::load_array(A, {b.sub(i), b.sub(j)}),
            ir::store_array(A, {b.sub(i), b.sub(j)})},
           2);
    b.end_loop();
    b.end_loop();
  }
  b.begin_loop("w", 0, 3000);
  b.stmt({ir::chase(H)}, 2);
  b.end_loop();
  b.end_loop();
  return b.finish();
}

TEST(Versions, PrepareProducesThreeCodeProducts) {
  const ir::Program base = mixed_demo();
  transform::OptimizeOptions opt;

  ir::Program base_code = prepare_program(base, Version::Base, opt);
  ir::Program hw_code = prepare_program(base, Version::PureHardware, opt);
  ir::Program sw_code = prepare_program(base, Version::PureSoftware, opt);
  ir::Program sel_code = prepare_program(base, Version::Selective, opt);

  // Base and PureHardware share the untouched code: no markers.
  EXPECT_EQ(analysis::count_markers(base_code), 0u);
  EXPECT_EQ(analysis::count_markers(hw_code), 0u);
  // PureSoftware is optimized but unmarked; Selective adds ON/OFF.
  EXPECT_EQ(analysis::count_markers(sw_code), 0u);
  EXPECT_GE(analysis::count_markers(sel_code), 2u);
  // The original is never mutated.
  EXPECT_EQ(analysis::count_markers(base), 0u);
}

/// The planner's cost estimate counts references from the loop bounds
/// alone; it must equal what an interpretation issues. The products checked
/// include loops walked iteration by iteration (bounds that read an outer
/// variable) and tiled ones.
TEST(Versions, DynamicRefCountMatchesTheInterpreter) {
  struct NullCpu {
    void compute(std::uint64_t) {}
    void load(Addr, bool = false) {}
    void store(Addr) {}
    void branch(Addr, bool) {}
    void toggle(bool, std::int32_t = -1) {}
    void touch_code(Addr, std::uint32_t) {}
  };
  for (const char* name : {"TPC-C", "TPC-D,Q3", "Mgrid"}) {
    const ir::Program base = workloads::workload(name).build();
    for (Version v : kAllVersions) {
      SCOPED_TRACE(std::string(name) + " " + to_string(v));
      const ir::Program p = prepare_program(base, v, {});
      codegen::DataEnv env(p);
      NullCpu cpu;
      codegen::BasicTraceEngine<NullCpu> engine(p, env, cpu);
      engine.run();
      EXPECT_EQ(p.dynamic_ref_count(),
                engine.loads_executed() + engine.stores_executed());
    }
  }
}

workloads::WorkloadInfo demo_info() {
  return {"demo", "synthetic", workloads::Category::Mixed, mixed_demo,
          1.0, 1.0, 1.0};
}

TEST(Runner, BaseRunProducesCyclesAndRates) {
  const RunResult r =
      run_version(demo_info(), base_machine(), Version::Base);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.l1_miss_rate, 0.0);
  EXPECT_EQ(r.toggles, 0u);
  EXPECT_TRUE(r.stats.has("cpu.cycles"));
}

TEST(Runner, SelectiveExecutesToggles) {
  const RunResult r =
      run_version(demo_info(), base_machine(), Version::Selective);
  EXPECT_GT(r.toggles, 0u);
}

TEST(Runner, RunsAreReproducible) {
  const RunResult a =
      run_version(demo_info(), base_machine(), Version::Combined);
  const RunResult b =
      run_version(demo_info(), base_machine(), Version::Combined);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Runner, ImprovementRowCoversAllVersions) {
  const ImprovementRow row =
      improvements_for(demo_info(), base_machine());
  EXPECT_EQ(row.pct.size(), 4u);
  EXPECT_GT(row.base_cycles, 0u);
  // The hostile column-walk makes software optimization clearly positive.
  EXPECT_GT(row.pct.at(Version::PureSoftware), 5.0);
  // Selective must not lose to Combined (the paper's core claim).
  EXPECT_GE(row.pct.at(Version::Selective),
            row.pct.at(Version::Combined) - 0.5);
}

TEST(Runner, EmptyWorkloadSweepIsDegenerateNotFatal) {
  // A workload that executes zero cycles (empty program) used to crash the
  // whole sweep via the improvement_pct() zero-baseline check. It now
  // reports 0% for every version and bumps the degenerate-call counter.
  const workloads::WorkloadInfo w{
      "empty", "none", workloads::Category::Mixed,
      [] {
        ir::ProgramBuilder b("empty");
        return b.finish();
      },
      0.0, 0.0, 0.0};
  const std::uint64_t before = improvement_pct_degenerate_count().load();
  ImprovementRow row;
  ASSERT_NO_THROW(row = improvements_for(w, base_machine()));
  EXPECT_EQ(row.base_cycles, 0u);
  for (const auto& [v, pct] : row.pct) EXPECT_DOUBLE_EQ(pct, 0.0);
  EXPECT_GT(improvement_pct_degenerate_count().load(), before);
}

TEST(Runner, AverageImprovementFilters) {
  std::vector<ImprovementRow> rows(2);
  rows[0].category = workloads::Category::Regular;
  rows[0].pct[Version::Selective] = 10.0;
  rows[1].category = workloads::Category::Mixed;
  rows[1].pct[Version::Selective] = 20.0;
  EXPECT_DOUBLE_EQ(average_improvement(rows, Version::Selective), 15.0);
  const workloads::Category reg = workloads::Category::Regular;
  EXPECT_DOUBLE_EQ(average_improvement(rows, Version::Selective, &reg), 10.0);
}

TEST(Report, FormatsMachineAndFigure) {
  const std::string m = format_machine(base_machine());
  EXPECT_NE(m.find("bi-modal with 2048 entries"), std::string::npos);

  std::vector<ImprovementRow> rows(1);
  rows[0].benchmark = "demo";
  rows[0].category = workloads::Category::Mixed;
  for (Version v : kEvaluatedVersions) rows[0].pct[v] = 1.0;
  const std::string f = format_figure("Fig", rows);
  EXPECT_NE(f.find("demo"), std::string::npos);
  EXPECT_NE(f.find("Selective"), std::string::npos);
}

}  // namespace
}  // namespace selcache::core
