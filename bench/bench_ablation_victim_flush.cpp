// Ablation: the §5.2 victim-cache scenario. "Assume that there is a nest
// that contains two 'for loops', one of them being larger than the other.
// When we run the hardware for both of the loops, the smaller for loop will
// be able to evict the elements in the victim cache from the larger for
// loop. ... if we turn the victim cache off for the small loop, the elements
// of the large loop will remain in the victim cache, reducing the amount of
// conflict misses."
//
// We build exactly that nest: a large conflict-heavy loop and a small loop,
// and compare victim-cache hit counts and cycles with the mechanism always
// on vs. switched off around the small loop.
#include <cstdio>

#include "codegen/trace_engine.h"
#include "core/versions.h"
#include "figure_common.h"
#include "hw/victim_scheme.h"
#include "ir/builder.h"
#include "support/table.h"

using namespace selcache;

namespace {

/// big_loop: walks 3 arrays whose blocks collide in a few L1 sets (conflict
/// misses the 64-entry victim cache can catch on the next outer iteration).
/// small_loop: streams a scratch buffer, flushing the victim cache when the
/// mechanism stays on.
ir::Program nest(bool toggles) {
  ir::ProgramBuilder b("victim_flush");
  // Five arrays exactly one L1 way (8 KB) apart: A[4i], B[4i], ... all map
  // to the same set, needing 5 ways in a 4-way cache — one conflict victim
  // per touched set, re-referenced on the next outer iteration. 48 touched
  // sets keep the overflow within the 64-entry victim cache.
  const auto A = b.array("A", {1024});
  const auto B = b.array("B", {1024});
  const auto C = b.array("C", {1024});
  const auto D = b.array("D", {1024});
  const auto E = b.array("E", {1024});
  const auto scratch = b.array("scratch", {262144});  // 2 MB stream

  b.begin_loop("outer", 0, 400);
  if (toggles) b.toggle(true);
  {
    const auto i = b.begin_loop("big", 0, 48);
    b.stmt({ir::load_array(A, {b.sub(ir::x(i) * 4)}),
            ir::load_array(B, {b.sub(ir::x(i) * 4)}),
            ir::load_array(C, {b.sub(ir::x(i) * 4)}),
            ir::load_array(D, {b.sub(ir::x(i) * 4)}),
            ir::store_array(E, {b.sub(ir::x(i) * 4)})},
           2);
    b.end_loop();
  }
  if (toggles) b.toggle(false);
  {
    // The small loop streams FRESH scratch data every outer iteration: its
    // evictions are never re-referenced, so capturing them in the victim
    // cache (always-on) only flushes the big loop's useful victims.
    const auto outer_var = ir::Var{0};
    const auto k = b.begin_loop("small", ir::x(outer_var) * 512,
                                ir::x(outer_var) * 512 + 512);
    b.stmt({ir::load_array(scratch, {b.sub(k)})}, 1);
    b.end_loop();
  }
  b.end_loop();
  return b.finish();
}

struct Outcome {
  Cycle cycles;
  std::uint64_t victim_hits;
};

Outcome run(bool toggles, bool force_on) {
  const ir::Program p = nest(toggles);
  const core::MachineConfig m = core::base_machine();
  memsys::Hierarchy h(m.hierarchy);
  auto scheme = core::make_scheme(hw::SchemeKind::Victim, m);
  h.attach_hw(scheme.get());
  hw::Controller ctl(scheme.get());
  ctl.force(force_on);
  cpu::TimingModel cpu(m.cpu, h, ctl);
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, cpu);
  eng.run();
  StatSet s;
  h.export_stats(s);
  return {cpu.cycles(), s.get("victim_l1.hits")};
}

}  // namespace

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const Outcome off = run(/*toggles=*/false, /*force_on=*/false);
  const Outcome combined = run(/*toggles=*/false, /*force_on=*/true);
  const Outcome selective = run(/*toggles=*/true, /*force_on=*/false);

  TextTable t({"Configuration", "Cycles", "L1-victim hits",
               "vs. no victim [%]"});
  const auto pct = [&](Cycle c) {
    return TextTable::num(improvement_pct(off.cycles, c));
  };
  t.add_row({"no victim cache", TextTable::count(off.cycles), "0", "0.00"});
  t.add_row({"always on (combined)", TextTable::count(combined.cycles),
             TextTable::count(combined.victim_hits), pct(combined.cycles)});
  t.add_row({"off around small loop (selective)",
             TextTable::count(selective.cycles),
             TextTable::count(selective.victim_hits), pct(selective.cycles)});

  std::printf("== Ablation: small-loop victim-cache flush (section 5.2) "
              "==\n%s"
              "Turning the mechanism off for the small loop preserves the\n"
              "large loop's victims: more victim hits, fewer cycles.\n",
              t.str().c_str());
  return 0;
}
