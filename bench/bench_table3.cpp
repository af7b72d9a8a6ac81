// Table 3: average improvements of every version over the Base run, for the
// six machine configurations and both hardware schemes — the paper's summary
// table. Paper values are printed alongside for direct comparison. Takes
// the shared figure-bench flags (figure_common.h); --max-points keeps the
// first N machines.
#include <chrono>
#include <cstdio>

#include "figure_common.h"
#include "support/table.h"

using namespace selcache;

namespace {

struct PaperRow {
  const char* name;
  double pure_sw, bypass, comb_bypass, sel_bypass;
  double victim, comb_victim, sel_victim;
};

// Table 3 of the paper, verbatim.
constexpr PaperRow kPaper[] = {
    {"Base Confg.", 16.12, 5.07, 17.37, 24.98, 1.38, 16.45, 23.82},
    {"Higher Mem. Lat.", 15.82, 7.69, 17.66, 26.07, 4.52, 16.24, 24.88},
    {"Larger L2 Size", 14.81, 4.75, 15.79, 22.25, 0.80, 14.05, 20.10},
    {"Larger L1 Size", 17.42, 4.94, 17.04, 24.17, 1.16, 16.45, 22.55},
    {"Higher L2 Asc.", 14.05, 4.82, 15.00, 21.22, 0.92, 13.12, 19.39},
    {"Higher L1 Asc.", 13.96, 3.96, 14.51, 20.93, 2.14, 12.06, 19.21},
};

std::string cell(double measured, double paper) {
  return TextTable::num(measured) + " (" + TextTable::num(paper) + ")";
}

}  // namespace

int main(int argc, char** argv) {
  const auto fopt = bench::parse_figure_options(argc, argv);
  std::vector<core::MachineConfig> machines = core::all_machines();
  if (fopt.max_points >= 0 &&
      static_cast<std::size_t>(fopt.max_points) < machines.size())
    machines.resize(static_cast<std::size_t>(fopt.max_points));

  // One axis per scheme: the memory-latency machine rides with the base
  // machine, and each other machine gets a ride pass of its own.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<core::ImprovementRow>> byp, vic;
  const int rc = bench::guarded_sweep(
      fopt, machines.size(), [&](core::RunOptions opt) {
        const core::ParallelSweepOptions par{.num_threads = fopt.threads};
        opt.scheme = hw::SchemeKind::Bypass;
        byp = core::sweep_axis(machines, opt, par);
        opt.scheme = hw::SchemeKind::Victim;
        vic = core::sweep_axis(machines, opt, par);
      });
  if (rc != 0) return rc;

  TextTable t({"Experiment", "Pure Software", "Cache Bypass",
               "Combined (byp)", "Selective (byp)", "Victim Caches",
               "Combined (vic)", "Selective (vic)"});
  for (std::size_t k = 0; k < machines.size(); ++k) {
    const auto avg = [](const std::vector<core::ImprovementRow>& rows,
                        core::Version v) {
      return core::average_improvement(rows, v);
    };
    const PaperRow& pr = kPaper[k];
    t.add_row({machines[k].name,
               cell(avg(byp[k], core::Version::PureSoftware), pr.pure_sw),
               cell(avg(byp[k], core::Version::PureHardware), pr.bypass),
               cell(avg(byp[k], core::Version::Combined), pr.comb_bypass),
               cell(avg(byp[k], core::Version::Selective), pr.sel_bypass),
               cell(avg(vic[k], core::Version::PureHardware), pr.victim),
               cell(avg(vic[k], core::Version::Combined), pr.comb_victim),
               cell(avg(vic[k], core::Version::Selective), pr.sel_victim)});
  }

  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("== Table 3: average improvements, measured (paper) ==\n%s",
              t.str().c_str());
  std::printf("(simulated in %.1fs; every cell averages the 13-benchmark "
              "suite)\n", dt);
  return 0;
}
