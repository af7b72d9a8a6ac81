// Ablation: rank the hardware mechanisms — the paper's two (bypassing,
// victim caching) plus the extension schemes (stream prefetcher, composite
// bypass+victim) — under always-on and selective operation, averaged over
// the 13-benchmark suite on the base machine.
#include <cstdio>

#include "core/runner.h"
#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

int main(int argc, char** argv) {
  bench::refuse_arguments(argc, argv);
  TextTable t({"Scheme", "Pure HW avg [%]", "Combined avg [%]",
               "Selective avg [%]"});
  for (hw::SchemeKind k :
       {hw::SchemeKind::Bypass, hw::SchemeKind::Victim,
        hw::SchemeKind::Prefetch, hw::SchemeKind::Composite}) {
    core::RunOptions opt;
    opt.scheme = k;
    const auto rows = core::sweep_suite(core::base_machine(), opt);
    t.add_row({hw::to_string(k),
               TextTable::num(core::average_improvement(
                   rows, core::Version::PureHardware)),
               TextTable::num(core::average_improvement(
                   rows, core::Version::Combined)),
               TextTable::num(core::average_improvement(
                   rows, core::Version::Selective))});
    std::fprintf(stderr, "  [schemes] %s done\n", hw::to_string(k));
  }
  std::printf("== Ablation: hardware scheme comparison (base config, "
              "13-benchmark averages) ==\n%s"
              "'prefetch' and 'bypass+victim' are extensions beyond the "
              "paper's two schemes.\n",
              t.str().c_str());
  return 0;
}
