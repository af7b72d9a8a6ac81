// Ablation: redundant ON/OFF elimination (Figure 2(b) -> 2(c)). Reports,
// per benchmark, how many markers region detection inserts, how many the
// elimination pass removes, and how many activate/deactivate instructions
// execute at run time with and without the pass.
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const core::MachineConfig machine = core::base_machine();
  TextTable t({"Benchmark", "Inserted", "Eliminated", "Final",
               "Toggles run (raw)", "Toggles run (clean)", "Cycle delta"});

  for (const auto& w : workloads::all_workloads()) {
    // Static counts from the pipeline report.
    ir::Program p = w.build();
    transform::OptimizeOptions opt;
    opt.insert_markers = true;
    const auto rep = transform::optimize_program(p, opt);

    // Dynamic counts with and without elimination.
    core::RunOptions raw;
    raw.optimize.insert_markers = true;
    raw.optimize.eliminate_markers = false;
    const auto r_raw =
        core::run_version(w, machine, core::Version::Selective, raw);
    const auto r_clean =
        core::run_version(w, machine, core::Version::Selective);

    const double delta = improvement_pct(r_raw.cycles, r_clean.cycles);
    t.add_row({w.name, std::to_string(rep.markers_inserted),
               std::to_string(rep.markers_eliminated),
               std::to_string(rep.markers_final),
               TextTable::count(r_raw.toggles),
               TextTable::count(r_clean.toggles),
               TextTable::num(delta, 3) + "%"});
  }

  std::printf("== Ablation: redundant activate/deactivate elimination ==\n%s"
              "'Toggles run' counts executed ON/OFF instructions; the cycle\n"
              "delta is what the cleanup is worth at run time (positive =\n"
              "elimination is faster).\n",
              t.str().c_str());
  return 0;
}
