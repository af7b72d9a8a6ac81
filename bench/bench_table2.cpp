// Table 2: benchmark characteristics under the base configuration —
// instructions executed, L1/L2 miss rates, plus the conflict-miss share the
// text of §4.2 quotes (53–72%).
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const core::MachineConfig machine = core::base_machine();
  core::RunOptions opt;
  opt.classify_misses = true;

  TextTable t({"Benchmark", "Category", "Instrs (sim)", "Paper (M, x50)",
               "L1 Miss [%]", "paper", "L2 Miss [%]", "paper",
               "Conflict [%]"});
  for (const auto& w : workloads::all_workloads()) {
    const core::RunResult r =
        core::run_version(w, machine, core::Version::Base, opt);
    t.add_row({w.name, to_string(w.category), TextTable::count(r.instructions),
               TextTable::num(w.paper_instructions_m / 50.0, 2) + "M",
               TextTable::num(100.0 * r.l1_miss_rate),
               TextTable::num(w.paper_l1_miss),
               TextTable::num(100.0 * r.l2_miss_rate),
               TextTable::num(w.paper_l2_miss),
               TextTable::num(100.0 * r.conflict_share)});
  }
  std::printf("== Table 2: benchmark characteristics (base config) ==\n%s\n",
              t.str().c_str());
  std::printf("Workloads are scaled ~1/50 from the paper's instruction "
              "counts; see EXPERIMENTS.md.\n");
  return 0;
}
