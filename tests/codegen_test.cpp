// Tests for address layout, the data environment, and the trace engine.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "codegen/trace_engine.h"
#include "hw/victim_scheme.h"
#include "ir/builder.h"

namespace selcache::codegen {
namespace {

using ir::ArrayDecl;
using ir::load_array;
using ir::ProgramBuilder;
using ir::store_array;
using ir::Subscript;
using ir::x;

ArrayDecl decl_2d(std::int64_t r, std::int64_t c, ir::Layout layout,
                  std::int64_t pad = 0) {
  ArrayDecl d;
  d.name = "A";
  d.dims = {r, c};
  d.elem_size = 8;
  d.layout = layout;
  d.pad_elems = pad;
  return d;
}

TEST(ArrayLayout, RowMajorAddressing) {
  ArrayLayout l(decl_2d(4, 8, ir::Layout::RowMajor), 0x1000);
  const std::int64_t i00[] = {0, 0}, i01[] = {0, 1}, i10[] = {1, 0};
  EXPECT_EQ(l.element_addr(i00), 0x1000u);
  EXPECT_EQ(l.element_addr(i01), 0x1000u + 8);
  EXPECT_EQ(l.element_addr(i10), 0x1000u + 8 * 8);
}

TEST(ArrayLayout, ColMajorAddressing) {
  ArrayLayout l(decl_2d(4, 8, ir::Layout::ColMajor), 0);
  const std::int64_t i01[] = {0, 1}, i10[] = {1, 0};
  EXPECT_EQ(l.element_addr(i10), 8u);       // rows contiguous
  EXPECT_EQ(l.element_addr(i01), 4u * 8);   // column stride = 4 rows
}

TEST(ArrayLayout, PaddingWidensFastestDim) {
  ArrayLayout l(decl_2d(4, 8, ir::Layout::RowMajor, /*pad=*/2), 0);
  const std::int64_t i10[] = {1, 0};
  EXPECT_EQ(l.element_addr(i10), (8u + 2) * 8);
  EXPECT_EQ(l.footprint_bytes(), 4u * 10 * 8);
}

TEST(ArrayLayout, OutOfRangeWraps) {
  ArrayLayout l(decl_2d(4, 8, ir::Layout::RowMajor), 0);
  const std::int64_t over[] = {1, 9};   // j wraps to 1
  const std::int64_t in[] = {1, 1};
  EXPECT_EQ(l.element_addr(over), l.element_addr(in));
  const std::int64_t neg[] = {-1, 0};   // wraps to row 3
  const std::int64_t row3[] = {3, 0};
  EXPECT_EQ(l.element_addr(neg), l.element_addr(row3));
}

/// Every subscript wraps into [0, extent) as the floored remainder, however
/// far below zero or past the extent it lies, under either layout and with
/// extents that are not powers of two.
TEST(ArrayLayout, EveryOutOfRangeIndexWrapsLikeTheFlooredRemainder) {
  const auto wrapped = [](std::int64_t i, std::int64_t n) {
    return ((i % n) + n) % n;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const ir::Layout layout : {ir::Layout::RowMajor, ir::Layout::ColMajor}) {
    ArrayLayout l(decl_2d(5, 7, layout, /*pad=*/3), 0x2000);
    std::vector<std::int64_t> probes = {kMin, kMin + 1, kMax, kMax - 1};
    for (std::int64_t i = -23; i <= 23; ++i) probes.push_back(i);
    for (const std::int64_t i : probes) {
      for (const std::int64_t j : probes) {
        const std::int64_t raw[] = {i, j};
        const std::int64_t in[] = {wrapped(i, 5), wrapped(j, 7)};
        ASSERT_EQ(l.element_addr(raw), l.element_addr(in))
            << "(" << i << ", " << j << ")";
      }
    }
  }
}

TEST(DataEnv, AllocationsDisjointAndAligned) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {64, 64});
  const auto B = b.array("B", {64});
  b.scalar("s");
  b.chase_pool("P", 128, 32);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  const auto& la = env.array_layout(A);
  const auto& lb = env.array_layout(B);
  EXPECT_EQ(la.base() % 4096, 0u);
  EXPECT_EQ(lb.base() % 4096, 0u);
  EXPECT_GE(lb.base(), la.base() + la.footprint_bytes());
  EXPECT_GT(env.total_footprint(), 0u);
}

TEST(DataEnv, IndexContentsRespectRange) {
  ProgramBuilder b("t");
  const auto U = b.index_array("U", 512, ArrayDecl::Content::Uniform, 0, 37);
  const auto Z = b.index_array("Z", 512, ArrayDecl::Content::Zipf, 0.9, 37);
  const auto I = b.index_array("I", 512, ArrayDecl::Content::Identity, 0, 0);
  const auto M = b.index_array("M", 512, ArrayDecl::Content::Mesh, 8, 37);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  for (std::int64_t k = 0; k < 512; ++k) {
    EXPECT_GE(env.index_value(U, k), 0);
    EXPECT_LT(env.index_value(U, k), 37);
    EXPECT_LT(env.index_value(Z, k), 37);
    EXPECT_LT(env.index_value(M, k), 37);
    EXPECT_EQ(env.index_value(I, k), k % 512);
  }
  // Position wraps.
  EXPECT_EQ(env.index_value(U, 512), env.index_value(U, 0));
  EXPECT_EQ(env.index_value(U, -1), env.index_value(U, 511));
}

TEST(DataEnv, PermutationContentIsBijective) {
  ProgramBuilder b("t");
  const auto P = b.index_array("P", 128, ArrayDecl::Content::Permutation);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  std::set<std::int64_t> seen;
  for (std::int64_t k = 0; k < 128; ++k) seen.insert(env.index_value(P, k));
  EXPECT_EQ(seen.size(), 128u);
}

TEST(DataEnv, DeterministicAcrossInstances) {
  ProgramBuilder b("t");
  const auto U = b.index_array("U", 64, ArrayDecl::Content::Uniform, 0, 1000);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv e1(p), e2(p);
  for (std::int64_t k = 0; k < 64; ++k)
    EXPECT_EQ(e1.index_value(U, k), e2.index_value(U, k));
}

TEST(DataEnv, ChaseVisitsAllNodesInACycle) {
  ProgramBuilder b("t");
  const auto P = b.chase_pool("P", 64, 32, /*shuffled=*/true);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  std::set<Addr> nodes;
  for (int k = 0; k < 64; ++k) nodes.insert(env.chase_next(P, 0));
  EXPECT_EQ(nodes.size(), 64u);  // Hamiltonian cycle covers the pool
  // The next lap revisits the same nodes in the same order.
  env.reset_walks();
  EXPECT_NE(nodes.find(env.chase_next(P, 0)), nodes.end());
}

TEST(DataEnv, SequentialChaseIsAddressOrdered) {
  ProgramBuilder b("t");
  const auto P = b.chase_pool("P", 8, 32, /*shuffled=*/false);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  Addr prev = env.chase_next(P, 0);
  for (int k = 1; k < 7; ++k) {
    const Addr cur = env.chase_next(P, 0);
    EXPECT_EQ(cur, prev + 32);
    prev = cur;
  }
}

TEST(DataEnv, RecordAddrWrapsAndOffsets) {
  ProgramBuilder b("t");
  const auto R = b.record_pool("R", 10, 64);
  b.stmt({}, 1);
  const ir::Program p = b.finish();
  DataEnv env(p);
  EXPECT_EQ(env.record_addr(R, 3, 16) - env.record_addr(R, 3, 0), 16u);
  EXPECT_EQ(env.record_addr(R, 13, 0), env.record_addr(R, 3, 0));
  EXPECT_EQ(env.record_addr(R, -1, 0), env.record_addr(R, 9, 0));
}

// ---- trace engine -----------------------------------------------------------

struct Rig {
  memsys::Hierarchy hierarchy;
  hw::Controller controller;
  cpu::TimingModel cpu;

  Rig() : hierarchy(memsys::HierarchyConfig{}), controller(nullptr),
          cpu(cpu::CpuConfig{}, hierarchy, controller) {}
};

TEST(TraceEngine, ExecutesIterationSpace) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {16, 16});
  const auto i = b.begin_loop("i", 0, 16);
  const auto j = b.begin_loop("j", 0, 16);
  b.stmt({load_array(A, {b.sub(i), b.sub(j)}),
          store_array(A, {b.sub(i), b.sub(j)})},
         2);
  b.end_loop();
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  DataEnv env(p);
  TraceEngine eng(p, env, rig.cpu);
  eng.run();
  EXPECT_EQ(eng.iterations_executed(), 16u + 16 * 16);
  EXPECT_EQ(eng.loads_executed(), 256u);
  EXPECT_EQ(eng.stores_executed(), 256u);
  // Instructions: per inner iter 2 refs + 2 ops + 2 loop overhead, plus the
  // outer loop's 2 per iteration.
  EXPECT_EQ(rig.cpu.instructions(), 256u * 6 + 16 * 2);
}

TEST(TraceEngine, TriangularBoundsEvaluated) {
  ProgramBuilder b("t");
  const auto A = b.array("A", {32});
  const auto i = b.begin_loop("i", 0, 8);
  const auto j = b.begin_loop("j", x(i), ir::AffineExpr::constant(8));
  b.stmt({load_array(A, {b.sub(j)})}, 1);
  b.end_loop();
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  DataEnv env(p);
  TraceEngine eng(p, env, rig.cpu);
  eng.run();
  EXPECT_EQ(eng.loads_executed(), 8u + 7 + 6 + 5 + 4 + 3 + 2 + 1);
}

TEST(TraceEngine, IndexedSubscriptEmitsIndexLoad) {
  ProgramBuilder b("t");
  const auto G = b.array("G", {64});
  const auto IP = b.index_array("IP", 64, ArrayDecl::Content::Identity);
  const auto i = b.begin_loop("i", 0, 10);
  b.stmt({load_array(G, {Subscript::indexed(IP, x(i), 0)})}, 1);
  b.end_loop();
  const ir::Program p = b.finish();
  Rig rig;
  DataEnv env(p);
  TraceEngine eng(p, env, rig.cpu);
  eng.run();
  EXPECT_EQ(eng.loads_executed(), 20u);  // 10 index loads + 10 gathers
}

TEST(TraceEngine, TogglesReachController) {
  ProgramBuilder b("t");
  b.toggle(true);
  b.stmt({}, 1);
  b.toggle(false);
  const ir::Program p = b.finish();

  memsys::Hierarchy h((memsys::HierarchyConfig()));
  hw::VictimScheme scheme((hw::VictimSchemeConfig()));
  h.attach_hw(&scheme);
  hw::Controller ctl(&scheme);
  cpu::TimingModel cpu(cpu::CpuConfig{}, h, ctl);
  DataEnv env(p);
  TraceEngine eng(p, env, cpu);
  eng.run();
  EXPECT_EQ(ctl.toggles_executed(), 2u);
  EXPECT_FALSE(ctl.active());
}

TEST(TraceEngine, DeterministicCycles) {
  ProgramBuilder b("t");
  const auto P = b.chase_pool("P", 256, 32);
  b.begin_loop("i", 0, 500);
  b.stmt({ir::chase(P)}, 1);
  b.end_loop();
  const ir::Program p = b.finish();
  auto run = [&p] {
    Rig rig;
    DataEnv env(p);
    TraceEngine eng(p, env, rig.cpu);
    eng.run();
    return rig.cpu.cycles();
  };
  EXPECT_EQ(run(), run());
}

TEST(TraceEngine, LayoutAffectsAddressStream) {
  // The same program with a column-major array must produce different cache
  // behavior (more hits for a column walk).
  ProgramBuilder b("t");
  const auto A = b.array("A", {256, 256});
  const auto j = b.begin_loop("j", 0, 256);
  const auto i = b.begin_loop("i", 0, 256);
  b.stmt({load_array(A, {b.sub(i), b.sub(j)})}, 1);
  b.end_loop();
  b.end_loop();
  ir::Program p = b.finish();

  auto misses = [](const ir::Program& prog) {
    Rig rig;
    DataEnv env(prog);
    TraceEngine eng(prog, env, rig.cpu);
    eng.run();
    return rig.hierarchy.l1d().demand_stats().misses;
  };
  const auto row_misses = misses(p);
  p.array(A).layout = ir::Layout::ColMajor;
  const auto col_misses = misses(p);
  EXPECT_GE(row_misses, 4 * col_misses);  // column-major fixes the walk
}

}  // namespace
}  // namespace selcache::codegen
