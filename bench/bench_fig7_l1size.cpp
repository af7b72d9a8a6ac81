// Figure 7: L1D-size axis. The paper's point is 64K; the sweep traces the
// whole axis, one ride pass per point.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace selcache;
  const auto fopt = bench::parse_figure_options(argc, argv);
  std::vector<bench::SweepPoint> points;
  for (unsigned kb : {16u, 32u, 64u, 128u}) {
    core::MachineConfig m = core::larger_l1();
    m.hierarchy.l1d.size_bytes = std::uint64_t{kb} * 1024;
    m.name = "L1D " + std::to_string(kb) + "K";
    points.push_back(
        {m, "Figure 7: L1 size " + std::to_string(kb) + "K (bypass scheme)" +
                (kb == 64 ? " [paper point]" : "")});
  }
  return bench::run_figure_sweep(std::move(points), hw::SchemeKind::Bypass,
                                 fopt);
}
