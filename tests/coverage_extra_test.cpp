// Additional coverage: non-affine subscript evaluation, hierarchy+scheme
// integration paths, port exhaustion in the timing model, CSV export, and
// code-product equivalences.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "codegen/trace_engine.h"
#include "analysis/marker_elimination.h"
#include "core/report.h"
#include "core/runner.h"
#include "hw/bypass_scheme.h"
#include "hw/victim_scheme.h"
#include "ir/builder.h"
#include "ir/printer.h"

namespace selcache {
namespace {

using ir::load_array;
using ir::ProgramBuilder;
using ir::store_array;
using ir::Subscript;
using ir::x;

struct Rig {
  memsys::Hierarchy hierarchy;
  hw::Controller controller;
  cpu::TimingModel cpu;
  explicit Rig(memsys::HierarchyConfig cfg = {})
      : hierarchy(cfg), controller(nullptr),
        cpu(cpu::CpuConfig{}, hierarchy, controller) {}
};

TEST(EngineSubscripts, ProductAndDivideEvaluate) {
  ProgramBuilder b("pd");
  const auto D = b.array("D", {64, 64});
  const auto i = b.begin_loop("i", 1, 5);
  const auto j = b.begin_loop("j", 1, 5);
  b.stmt({load_array(D, {Subscript::product(x(i), x(j)),
                         Subscript::divide(x(i), x(j))})},
         1);
  b.end_loop();
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, rig.cpu);
  eng.run();
  EXPECT_EQ(eng.loads_executed(), 16u);
  // Spot-check the address math: i=2, j=3 touches D[6][0].
  const std::int64_t idx[] = {6, 0};
  EXPECT_GE(env.array_layout(D).element_addr(idx), env.array_layout(D).base());
}

TEST(EngineSubscripts, DivideByZeroFallsBackToNumerator) {
  ProgramBuilder b("dz");
  const auto D = b.array("D", {64});
  const auto i = b.begin_loop("i", 0, 4);  // j=0 in the divisor
  b.stmt({load_array(D, {Subscript::divide(x(i) + 8,
                                           ir::AffineExpr::constant(0))})},
         1);
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, rig.cpu);
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(eng.loads_executed(), 4u);
}

TEST(EngineSubscripts, IndexedFieldIsDependentLoad) {
  // A record selected through an index array serializes like a gather.
  ProgramBuilder b("fld");
  const auto R = b.record_pool("R", 1024, 64);
  const auto IP = b.index_array("IP", 256, ir::ArrayDecl::Content::Uniform,
                                0, 1024);
  const auto i = b.begin_loop("i", 0, 256);
  b.stmt({ir::load_field(R, Subscript::indexed(IP, x(i)), 8)}, 1);
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, rig.cpu);
  eng.run();
  EXPECT_EQ(eng.loads_executed(), 512u);  // index load + gather per iter
  StatSet s;
  rig.cpu.export_stats(s);
  EXPECT_GT(s.get("cpu.serialized_misses"), 0u);
}

TEST(HierarchyIntegration, BypassedBlockServedFromBufferEndToEnd) {
  memsys::HierarchyConfig cfg;
  memsys::Hierarchy h(cfg);
  hw::BypassSchemeConfig bcfg;
  bcfg.mat.decay_interval = 0;
  hw::BypassScheme scheme(bcfg);
  h.attach_hw(&scheme);
  scheme.set_active(true);

  // Make one 32 KB region hot so its macro-blocks dominate the MAT, with
  // enough pressure that a cold fill must evict a hot block.
  for (int round = 0; round < 64; ++round)
    for (Addr a = 0; a < 32 * 1024; a += 32)
      h.access(a, memsys::AccessKind::Load);
  // A cold block mapping onto the hot set: its fill should be bypassed.
  const Addr cold = 1 << 20;
  h.access(cold, memsys::AccessKind::Load);
  EXPECT_GT(scheme.bypasses(), 0u);
  EXPECT_FALSE(h.l1d().probe(cold));      // not in the cache...
  EXPECT_TRUE(scheme.buffer().probe(cold));  // ...but in the buffer
  // Re-access: served without another L2 trip.
  const auto l2_before = h.l2().demand_stats().accesses();
  h.access(cold + 8, memsys::AccessKind::Load);
  EXPECT_EQ(h.l2().demand_stats().accesses(), l2_before);
}

TEST(HierarchyIntegration, VictimSwapEndToEnd) {
  memsys::HierarchyConfig cfg;
  cfg.l1d.size_bytes = 1024;
  cfg.l1d.assoc = 1;  // 32 sets, direct-mapped: easy conflicts
  memsys::Hierarchy h(cfg);
  hw::VictimScheme scheme(hw::VictimSchemeConfig{.l1_entries = 8,
                                                 .l2_entries = 8,
                                                 .l1_block_size = 32,
                                                 .l2_block_size = 128,
                                                 .swap_latency = 1});
  h.attach_hw(&scheme);
  scheme.set_active(true);

  const Addr a = 0, b = 1024;  // same L1 set
  h.access(a, memsys::AccessKind::Load);
  h.access(b, memsys::AccessKind::Load);  // evicts a into the victim cache
  const auto l2_before = h.l2().demand_stats().accesses();
  const Cycle lat = h.access(a, memsys::AccessKind::Load);  // victim swap
  EXPECT_EQ(h.l2().demand_stats().accesses(), l2_before);  // no L2 trip
  EXPECT_EQ(lat, cfg.l1d.latency + 1);                     // swap_latency
  EXPECT_TRUE(h.l1d().probe(a));
  EXPECT_TRUE(scheme.l1_victims().probe(b));  // b displaced into the victims
}

TEST(Timing, PortExhaustionSerializes) {
  Rig rig;
  // Three far-apart independent misses: ports=2, so the third waits.
  rig.cpu.load(0 << 22);
  rig.cpu.load(1 << 22);
  const Cycle before = rig.cpu.memory_stall_cycles();
  rig.cpu.load(2 << 22);
  // The third miss pays more than the bandwidth floor (it had to drain).
  EXPECT_GT(rig.cpu.memory_stall_cycles() - before,
            rig.cpu.config().overlap_bandwidth_cycles);
}

TEST(Report, CsvHasHeaderAndAllRows) {
  std::vector<core::ImprovementRow> rows(2);
  rows[0].benchmark = "A";
  rows[1].benchmark = "B";
  for (auto& r : rows)
    for (core::Version v : core::kEvaluatedVersions) r.pct[v] = 1.5;
  const std::string csv = core::figure_csv(rows);
  EXPECT_NE(csv.find("benchmark,category"), std::string::npos);
  EXPECT_NE(csv.find("A,"), std::string::npos);
  EXPECT_NE(csv.find("B,"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Report, CsvQuotesWorkloadNamesContainingCommas) {
  std::vector<core::ImprovementRow> rows(1);
  rows[0].benchmark = "TPC-D,Q6";
  for (core::Version v : core::kEvaluatedVersions) rows[0].pct[v] = 1.5;
  const std::string csv = core::figure_csv(rows);
  const std::size_t eol = csv.find('\n');
  const std::string header = csv.substr(0, eol);
  const std::string row =
      csv.substr(eol + 1, csv.find('\n', eol + 1) - eol - 1);
  // RFC-4180 quoting: the comma inside the name must not add a column.
  EXPECT_EQ(row.rfind("\"TPC-D,Q6\",", 0), 0u) << row;
  const auto cols = [](const std::string& line) {
    std::size_t n = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  EXPECT_EQ(cols(row), cols(header));
}

TEST(Report, WriteTextFileRoundtrip) {
  const std::string path = ::testing::TempDir() + "/selcache_csv_test.csv";
  EXPECT_TRUE(core::write_text_file(path, "x,y\n1,2\n"));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "x,y\n1,2\n");
}

TEST(CodeProducts, CombinedAndPureSoftwareShareCode) {
  // §4.4: "the pure software approach, the combined approach, and the
  // selective approach all use the same optimized code" (selective adds
  // only markers).
  const auto& w = workloads::workload("Chaos");
  const ir::Program base = w.build();
  transform::OptimizeOptions opt;
  const ir::Program sw =
      core::prepare_program(base, core::Version::PureSoftware, opt);
  const ir::Program comb =
      core::prepare_program(base, core::Version::Combined, opt);
  const ir::Program sel =
      core::prepare_program(base, core::Version::Selective, opt);
  EXPECT_EQ(ir::print(sw), ir::print(comb));
  EXPECT_EQ(sw.static_ref_count(), sel.static_ref_count());
  EXPECT_GT(analysis::count_markers(sel), 0u);
}

TEST(Printer, ProductDivideForms) {
  ProgramBuilder b("pf");
  const auto D = b.array("D", {8, 8});
  const auto i = b.begin_loop("i", 0, 8);
  b.stmt({load_array(D, {Subscript::product(x(i), x(i)),
                         Subscript::divide(x(i), x(i) + 1)})},
         1);
  b.end_loop();
  const std::string out = ir::print(b.finish());
  EXPECT_NE(out.find("(i)*(i)"), std::string::npos);
  EXPECT_NE(out.find("(i)/(i + 1)"), std::string::npos);
}

}  // namespace
}  // namespace selcache
