// Ablation: the phase-change pathology (§5.1). "History information is
// useful as long as the program is within the same phase ... If this phase
// is not long enough, the hardware optimization actually increases the
// execution cycles for the current phase."
//
// Microbenchmark: a program sweeps fresh rows of two arrays in alternating
// phases; total work is fixed while the phase length varies. We report the
// overhead of keeping the bypass mechanism always ON (relative to OFF) for
// two MAT configurations: the default fast-adapting one (small counters,
// eviction punishment) and a slow-adapting one (large counters, no
// punishment, rare decay) that clings to stale phase history.
#include <cstdio>

#include "codegen/trace_engine.h"
#include "core/versions.h"
#include "figure_common.h"
#include "hw/bypass_scheme.h"
#include "ir/builder.h"
#include "support/table.h"

using namespace selcache;

namespace {

ir::Program phase_program(std::int64_t rows_per_phase, std::int64_t phases) {
  ir::ProgramBuilder b("phases");
  constexpr std::int64_t kCols = 512;  // 4 KB rows; windows exceed L1
  const auto A = b.array("A", {512, kCols});
  const auto B = b.array("B", {512, kCols});
  const auto p = b.begin_loop("p", 0, phases);
  for (int which = 0; which < 2; ++which) {
    const auto arr = which == 0 ? A : B;
    // Each phase re-sweeps its (fresh) window several times: within-phase
    // reuse is what stale bypassing destroys.
    b.begin_loop(which == 0 ? "ra" : "rb", 0, 4);
    const auto i = b.begin_loop(which == 0 ? "ia" : "ib",
                                ir::x(p) * rows_per_phase,
                                ir::x(p) * rows_per_phase + rows_per_phase);
    const auto j = b.begin_loop(which == 0 ? "ja" : "jb", 0, kCols);
    b.stmt({ir::load_array(arr, {b.sub(i), b.sub(j)}),
            ir::store_array(arr, {b.sub(i), b.sub(j)})},
           2);
    b.end_loop();
    b.end_loop();
    b.end_loop();
  }
  b.end_loop();
  return b.finish();
}

Cycle run(const ir::Program& p, bool hw_on, bool slow_mat) {
  const core::MachineConfig m = core::base_machine();
  memsys::Hierarchy h(m.hierarchy);
  hw::BypassSchemeConfig cfg;
  cfg.sldt.block_size = m.hierarchy.l1d.block_size;
  cfg.buffer_block_size = m.hierarchy.l1d.block_size;
  if (slow_mat) {
    cfg.mat.counter_max = 4095;
    cfg.mat.decay_interval = 4 * 1024 * 1024;
    cfg.punish_on_eviction = false;
  }
  hw::BypassScheme scheme(cfg);
  h.attach_hw(&scheme);
  hw::Controller ctl(&scheme);
  ctl.force(hw_on);
  cpu::TimingModel cpu(m.cpu, h, ctl);
  codegen::DataEnv env(p);
  codegen::TraceEngine eng(p, env, cpu);
  eng.run();
  return cpu.cycles();
}

double overhead_pct(const ir::Program& p, bool slow_mat) {
  const double off = static_cast<double>(run(p, false, slow_mat));
  const double on = static_cast<double>(run(p, true, slow_mat));
  return 100.0 * (on - off) / off;
}

}  // namespace

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  TextTable t({"Rows/phase", "Phase [KB]", "Overhead, adaptive MAT [%]",
               "Overhead, sticky MAT [%]"});
  // Total work held constant: rows_per_phase * phases = 512.
  for (std::int64_t rows : {8, 32, 128, 512}) {
    const std::int64_t phases = 512 / rows;
    const ir::Program p = phase_program(rows, phases);
    t.add_row({std::to_string(rows), std::to_string(rows * 4),
               TextTable::num(overhead_pct(p, false)),
               TextTable::num(overhead_pct(p, true))});
  }
  std::printf("== Ablation: phase length vs. always-on bypass overhead "
              "(section 5.1) ==\n%s"
              "A MAT that clings to stale history (sticky) punishes short\n"
              "phases hardest — the effect the paper blames for the naive\n"
              "combined version\'s losses; an adaptive MAT shrinks but does\n"
              "not remove it. Selective ON/OFF avoids it entirely.\n",
              t.str().c_str());
  return 0;
}
