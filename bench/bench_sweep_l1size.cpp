// Extension figure: cache-size sensitivity curve. Figures 7/9 of the paper
// probe single points (64K, 8-way); this sweep traces the whole curve —
// Selective improvement vs. L1 size for one benchmark of each category —
// showing where the software optimizations saturate and where the hardware
// mechanism stops mattering.
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  const std::uint64_t sizes[] = {8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024,
                                 128 * 1024};
  TextTable t({"Benchmark", "L1=8K", "L1=16K", "L1=32K", "L1=64K",
               "L1=128K"});

  for (const char* name : {"Perl", "Vpenta", "Chaos"}) {
    const auto& w = workloads::workload(name);
    std::vector<std::string> row{name};
    for (std::uint64_t size : sizes) {
      core::MachineConfig m = core::base_machine();
      m.hierarchy.l1d.size_bytes = size;
      const core::RunResult base =
          core::run_version(w, m, core::Version::Base);
      const core::RunResult sel =
          core::run_version(w, m, core::Version::Selective);
      row.push_back(TextTable::num(improvement_pct(base.cycles, sel.cycles)));
    }
    t.add_row(std::move(row));
  }

  std::printf("== Extension: Selective improvement vs. L1 size (bypass "
              "scheme) ==\n%s"
              "Each cell is %% improvement over that machine's own base run "
              "(one benchmark\nper category: irregular / regular / mixed).\n",
              t.str().c_str());
  return 0;
}
