// Selective in a ride (core/runner.cpp, run_ride) prices as extra points on
// a twin's simulation while its markers leave its machine equal to the
// twin's, and forks a machine of its own where they first do not. Every
// cell of such a ride, shadowed, forked or neither, must be the whole
// RunResult a solo run_version gives: cycles, instructions, miss rates,
// conflict share, toggles and every counter.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "ir/builder.h"
#include "support/thread_pool.h"

namespace selcache::core {
namespace {

constexpr std::size_t nv = kAllVersions.size();

/// A hand-built workload whose markers sit inside a loop: each outer
/// iteration chases a record pool (a hardware region) and then walks an
/// array (a compiler region), so Selective turns the scheme on and off
/// every iteration.
workloads::WorkloadInfo toggling_loop() {
  workloads::WorkloadInfo w;
  w.name = "TogglingLoop";
  w.category = workloads::Category::Mixed;
  w.build = [] {
    ir::ProgramBuilder b("toggling_loop");
    const ir::ArrayId a = b.array("A", {256, 64});
    const ir::PoolId h = b.chase_pool("H", 2048, 32);
    const ir::Var o = b.begin_loop("outer", 0, 12);
    b.begin_loop("walk", 0, 512);
    b.stmt({ir::chase(h)}, 1);
    b.end_loop();
    const ir::Var i = b.begin_loop("i", 0, 256);
    b.stmt({ir::load_array(a, {b.sub(i), b.sub(o)}),
            ir::store_array(a, {b.sub(i), b.sub(o, 1)})},
           2);
    b.end_loop();
    b.end_loop();
    return b.finish();
  };
  return w;
}

/// Mgrid runs no marker, so Selective shadows Pure Software to the end.
/// Perl's optimizer changes nothing and its Selective turns ON before its
/// first data access: it moves to Pure Hardware and never forks. TPC-C
/// forks from Combined, TPC-D,Q6 from Pure Software, and the toggling loop
/// moves to Combined and forks from it in its first iteration.
std::vector<workloads::WorkloadInfo> ride_suite() {
  return {workloads::workload("Mgrid"), workloads::workload("Perl"),
          workloads::workload("TPC-C"), workloads::workload("TPC-D,Q6"),
          toggling_loop()};
}

void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.conflict_share, b.conflict_share);
  EXPECT_EQ(a.toggles, b.toggles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.stats.all(), b.stats.all());
}

/// solo[(wi * 5 + vi) * machines.size() + p]: run_version of every cell at
/// every machine, on four threads.
std::vector<RunResult> solo_runs(
    const std::vector<workloads::WorkloadInfo>& suite,
    const std::vector<MachineConfig>& machines, const RunOptions& opt) {
  const std::size_t np = machines.size();
  std::vector<RunResult> out(suite.size() * nv * np);
  support::run_cells(out.size(), 4, [&](std::size_t k) {
    const std::size_t i = k / np;
    out[k] = run_version(suite[i / nv], machines[k % np], kAllVersions[i % nv],
                         opt);
  });
  return out;
}

/// Every workload of ride_suite runs Selective in one interpretation with
/// its twins: two interpretations (one for Perl, whose Pure Software and
/// Combined copy Base and Pure Hardware).
TEST(SelectiveShadow, EveryWorkloadRidesSelectiveWithItsTwins) {
  for (const workloads::WorkloadInfo& w : ride_suite()) {
    SCOPED_TRACE(w.name);
    const SweepPlan plan = plan_sweep({&w, 1});
    EXPECT_EQ(plan.interpretations, w.name == "Perl" ? 1u : 2u);
    EXPECT_EQ(plan.simulations, w.name == "Perl" ? 3u : 5u);
  }
}

/// Under every scheme, with and without the 3C classifier, run_units over
/// every cell, and over cells that leave out either twin of Selective,
/// gives the solo runs' results. The cells a todo leaves out are supplied
/// from the solo runs, as a journal would, so the copies find their
/// sources.
TEST(SelectiveShadow, RunUnitsMatchSoloRunsUnderEverySchemeAndTodo) {
  const std::vector<workloads::WorkloadInfo> suite = ride_suite();
  const std::size_t n = suite.size() * nv;
  // Per version: all; the always-on twin and Selective; the scheme-less
  // twin and Selective.
  const std::vector<std::array<bool, nv>> todos = {
      {true, true, true, true, true},
      {false, true, false, true, true},
      {true, false, true, false, true}};
  for (const hw::SchemeKind scheme :
       {hw::SchemeKind::None, hw::SchemeKind::Bypass, hw::SchemeKind::Victim,
        hw::SchemeKind::Prefetch, hw::SchemeKind::Composite}) {
    for (const bool classify : {false, true}) {
      SCOPED_TRACE(std::string(hw::to_string(scheme)) +
                   (classify ? " 3c" : ""));
      RunOptions opt;
      opt.scheme = scheme;
      opt.classify_misses = classify;
      const std::vector<RunResult> solo =
          solo_runs(suite, {base_machine()}, opt);
      for (const std::array<bool, nv>& want : todos) {
        std::vector<bool> todo(n);
        std::vector<std::optional<RunResult>> cells(n);
        for (std::size_t i = 0; i < n; ++i) {
          todo[i] = want[i % nv];
          if (!todo[i]) cells[i] = solo[i];
        }
        run_units(suite, base_machine(), opt, {.num_threads = 1}, todo, cells,
                  {});
        for (std::size_t i = 0; i < n; ++i) {
          SCOPED_TRACE(suite[i / nv].name + "/" +
                       version_key(kAllVersions[i % nv]) + " todo " +
                       std::to_string(want[0]) + std::to_string(want[1]));
          ASSERT_TRUE(cells[i].has_value());
          expect_same(*cells[i], solo[i]);
        }
      }
    }
  }
}

/// The base machine with a stream side that misses where the rest of the
/// machine hits: one-set TLBs over 64-byte pages (an I-fetch block can miss
/// the ITLB and hit the L1I) and a 3-entry branch predictor.
MachineConfig tight_stream_side() {
  MachineConfig m = base_machine();
  for (memsys::TlbConfig* t : {&m.hierarchy.dtlb, &m.hierarchy.itlb})
    *t = {.name = t->name, .entries = 4, .assoc = 4, .page_size = 64};
  m.cpu.bimodal_entries = 3;
  return m;
}

/// A four-point memory-latency group rides one pass priced at every
/// latency, Selective's points included, with one stream side for the
/// ride: sweep_axis gives the rows of the solo runs at each point, on the
/// base machine, on one whose stream side misses where the rest hits, and
/// on one that does not model I-fetch.
TEST(SelectiveShadow, MemoryLatencyGroupMatchesSoloRows) {
  const std::vector<workloads::WorkloadInfo> suite = ride_suite();
  MachineConfig no_ifetch = base_machine();
  no_ifetch.cpu.model_ifetch = false;
  for (const auto& [label, base] :
       std::vector<std::pair<std::string, MachineConfig>>{
           {"base", base_machine()},
           {"tight", tight_stream_side()},
           {"no ifetch", no_ifetch}}) {
    std::vector<MachineConfig> machines;
    for (const Cycle lat : {100, 160, 240, 400}) {
      MachineConfig m = base;
      m.hierarchy.mem.access_latency = lat;
      machines.push_back(m);
    }
    const std::size_t np = machines.size();
    for (const hw::SchemeKind scheme :
         {hw::SchemeKind::Bypass, hw::SchemeKind::Victim}) {
      SCOPED_TRACE(std::string(hw::to_string(scheme)) + " on " + label);
      RunOptions opt;
      opt.scheme = scheme;
      const std::vector<RunResult> solo = solo_runs(suite, machines, opt);
      const std::vector<std::vector<ImprovementRow>> rows =
          sweep_axis(machines, opt, {.num_threads = 1}, suite);
      ASSERT_EQ(rows.size(), np);
      for (std::size_t p = 0; p < np; ++p) {
        ASSERT_EQ(rows[p].size(), suite.size());
        for (std::size_t wi = 0; wi < suite.size(); ++wi) {
          SCOPED_TRACE(suite[wi].name + " at point " + std::to_string(p));
          std::array<RunResult, nv> results;
          for (std::size_t vi = 0; vi < nv; ++vi)
            results[vi] = solo[(wi * nv + vi) * np + p];
          const ImprovementRow want =
              make_improvement_row(suite[wi], results);
          const ImprovementRow& got = rows[p][wi];
          EXPECT_EQ(got.base_cycles, want.base_cycles);
          EXPECT_EQ(got.pct, want.pct);
          EXPECT_EQ(got.accesses, want.accesses);
          EXPECT_EQ(got.stats.all(), want.stats.all());
        }
      }
    }
  }
}

}  // namespace
}  // namespace selcache::core
