// Figure 9: L1-associativity axis. The paper's point is 8-way; the sweep
// traces the whole axis, one ride pass per point.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace selcache;
  const auto fopt = bench::parse_figure_options(argc, argv);
  std::vector<bench::SweepPoint> points;
  for (unsigned ways : {1u, 2u, 4u, 8u}) {
    core::MachineConfig m = core::higher_l1_assoc();
    m.hierarchy.l1d.assoc = ways;
    m.name = "L1 " + std::to_string(ways) + "-way";
    points.push_back(
        {m, "Figure 9: L1 associativity " + std::to_string(ways) +
                " (bypass scheme)" + (ways == 8 ? " [paper point]" : "")});
  }
  return bench::run_figure_sweep(std::move(points), hw::SchemeKind::Bypass,
                                 fopt);
}
