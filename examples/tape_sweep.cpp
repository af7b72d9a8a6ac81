// Record a workload's instruction/memory stream once as a tape, then replay
// it across every machine configuration — the cheap way to sweep hardware
// parameters when the code product is fixed.
//
//   $ ./build/examples/tape_sweep
#include <cstdio>

#include "core/runner.h"
#include "support/table.h"
#include "tape/tape.h"

using namespace selcache;

int main() {
  // Record TPC-C's selective product on the base machine.
  const auto& w = workloads::workload("TPC-C");
  const core::RunOptions opt;
  const tape::Tape t = core::record_tape(w, core::base_machine(),
                                         core::Version::Selective, opt);
  std::printf("recorded %llu data accesses from %s (Selective product) in "
              "%zu tape bytes\n\n",
              static_cast<unsigned long long>(t.stats.data_accesses()),
              w.name.c_str(), t.bytes.size());

  // Replay everywhere.
  TextTable table({"Machine", "Cycles", "L1 miss [%]", "L2 miss [%]"});
  for (const auto& m : core::all_machines()) {
    const core::RunResult r =
        core::replay_tape(t, m, core::Version::Selective, opt);
    table.add_row({m.name, TextTable::count(r.cycles),
                   TextTable::num(100.0 * r.l1_miss_rate),
                   TextTable::num(100.0 * r.l2_miss_rate)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
