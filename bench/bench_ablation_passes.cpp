// Ablation: contribution of each software pass (§3.2) to the Pure Software
// improvement, measured by disabling one pass at a time on the regular
// benchmarks (where the software pipeline does its work).
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

namespace {

double sw_improvement(const workloads::WorkloadInfo& w,
                      const transform::OptimizeOptions& opt) {
  const core::MachineConfig machine = core::base_machine();
  const auto base = core::run_version(w, machine, core::Version::Base);
  core::RunOptions ro;
  ro.optimize = opt;
  const auto sw =
      core::run_version(w, machine, core::Version::PureSoftware, ro);
  return improvement_pct(base.cycles, sw.cycles);
}

}  // namespace

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  TextTable t({"Benchmark", "all passes", "-interchange", "-layout",
               "-tiling", "-unroll&jam", "-scalar repl."});

  for (const char* name : {"Swim", "Mgrid", "Vpenta", "Adi", "Chaos",
                           "TPC-D,Q1"}) {
    const auto& w = workloads::workload(name);
    transform::OptimizeOptions all;
    std::vector<std::string> row{w.name,
                                 TextTable::num(sw_improvement(w, all))};
    for (int drop = 0; drop < 5; ++drop) {
      transform::OptimizeOptions opt;
      if (drop == 0) opt.enable_interchange = false;
      if (drop == 1) opt.enable_layout_selection = false;
      if (drop == 2) opt.enable_tiling = false;
      if (drop == 3) opt.enable_unroll_jam = false;
      if (drop == 4) opt.enable_scalar_replacement = false;
      row.push_back(TextTable::num(sw_improvement(w, opt)));
    }
    t.add_row(std::move(row));
  }

  std::printf("== Ablation: per-pass contribution to Pure Software ==\n%s"
              "Each column disables one pass; the drop from 'all passes'\n"
              "is that pass's contribution on that benchmark.\n",
              t.str().c_str());
  return 0;
}
