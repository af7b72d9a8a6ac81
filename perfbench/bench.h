// The selcache benchmark: four user workloads driven through the public
// entry points of core, tape and store. See README.md in this directory for
// why each workload exists and what every metric means.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.h"

namespace perfbench {

enum class Workload { SuiteInterp, AxisMemlat, SuiteReplayVictim, StoreWarmAxis };

std::optional<Workload> parse_workload(std::string_view name);

struct Config {
  Workload workload = Workload::SuiteInterp;
  std::uint64_t seed = 0;  ///< RunOptions::data_seed of every cell
  unsigned threads = 1;    ///< sweep-engine workers of a timed pass
  std::string work_dir;    ///< result-store directory of the store workloads
};

/// Results of one pass, indexed [machine point][suite workload].
using Rows = std::vector<std::vector<selcache::core::ImprovementRow>>;

/// The machine points a workload sweeps: the base machine, or the four
/// points of the Figure 5 memory-latency axis.
std::vector<selcache::core::MachineConfig> machine_points(Workload w);

/// Cell options every workload starts from: its scheme and the data seed.
selcache::core::RunOptions run_options(const Config& c);

/// One FNV-1a digest per cell (machine point x workload x version), in that
/// order, over the cell's StatSet and its entry of the improvement row.
std::vector<std::uint64_t> cell_digests(const Rows& rows);

/// The workload's set-up: record tapes / fill the store in work_dir for
/// the store workloads. suite_interp and axis_memlat have none; for them
/// this builds every cell's code product and data once, as a proxy, and
/// the pass does not use what it builds.
void setup(const Config& c);

/// One timed pass of the workload's task at c.threads workers.
Rows run_pass(const Config& c);

/// The independent reference: every cell interpreted on its own through
/// core::run_version (no tape, no store, no sweep engine).
Rows reference(const Config& c);

/// The traced run (layers.cpp): one untraced parallel pass, the task's
/// per-cell calls serially with a span around each, and the per-layer
/// split of every cell. Writes the spans as JSONL to `spans_path`, stores
/// the traced pass's results in `*rows`, and returns a JSON object of the
/// counts and wall times the span file does not carry.
std::string traced_run(const Config& c, const std::string& spans_path,
                       Rows* rows);

}  // namespace perfbench
