// Extension: memory-system energy per version (after the paper's reference
// [2] on energy behavior of memory-resident data). Locality optimization
// saves energy as well as time; the selective scheme keeps the savings of
// both worlds.
#include <cstdio>

#include "core/energy.h"
#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const core::MachineConfig machine = core::base_machine();
  TextTable t({"Benchmark", "Version", "L1 [uJ]", "L2 [uJ]", "Mem [uJ]",
               "Total [uJ]", "vs Base [%]"});

  for (const char* name : {"Perl", "Vpenta", "Chaos", "TPC-D,Q1"}) {
    const auto& w = workloads::workload(name);
    const core::RunResult base =
        core::run_version(w, machine, core::Version::Base);
    const double base_total = core::estimate_energy(base.stats).total();
    const auto add = [&](const char* vname, const core::RunResult& r) {
      const core::EnergyBreakdown e = core::estimate_energy(r.stats);
      t.add_row({name, vname, TextTable::num(e.l1 / 1000.0),
                 TextTable::num(e.l2 / 1000.0),
                 TextTable::num(e.memory / 1000.0),
                 TextTable::num(e.total() / 1000.0),
                 TextTable::num(100.0 * (base_total - e.total()) /
                                base_total)});
    };
    add("Base", base);
    for (core::Version v : core::kEvaluatedVersions)
      add(to_string(v), core::run_version(w, machine, v));
  }

  std::printf("== Extension: memory-system energy per version (base "
              "config, bypass scheme) ==\n%s"
              "Costs are first-order per-event estimates (core/energy.h); "
              "relative\ncomparisons are the point, not absolute joules.\n",
              t.str().c_str());
  return 0;
}
