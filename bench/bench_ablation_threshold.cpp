// Ablation: sensitivity of the Selective version to the §2.3 method-
// selection threshold. §4.1: "after extensive experimentation ... a
// threshold value of 0.5 was selected ... however, this threshold was not
// so critical, because in all the benchmarks, if a code region contains
// irregular (regular) access, it consists mainly of irregular (regular)
// accesses (between 90% and 100%)".
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const double thresholds[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  const core::MachineConfig machine = core::base_machine();

  TextTable t({"Benchmark", "t=0.1", "t=0.3", "t=0.5", "t=0.7", "t=0.9"});
  std::vector<double> sums(5, 0.0);
  for (const auto& w : workloads::all_workloads()) {
    const core::RunResult base =
        core::run_version(w, machine, core::Version::Base);
    std::vector<std::string> row{w.name};
    for (std::size_t k = 0; k < 5; ++k) {
      core::RunOptions opt;
      opt.optimize.threshold = thresholds[k];
      const core::RunResult sel =
          core::run_version(w, machine, core::Version::Selective, opt);
      const double pct = improvement_pct(base.cycles, sel.cycles);
      sums[k] += pct;
      row.push_back(TextTable::num(pct));
    }
    t.add_row(std::move(row));
  }
  std::vector<std::string> avg{"AVERAGE"};
  for (double s : sums) avg.push_back(TextTable::num(s / 13.0));
  t.add_row(std::move(avg));

  std::printf("== Ablation: method-selection threshold (Selective, bypass, "
              "base config) ==\n%s"
              "Expected (paper, section 4.1): averages change little across "
              "thresholds\nbecause regions are 90-100%% uniform.\n",
              t.str().c_str());
  return 0;
}
