// Figure 6: L2-size axis. The paper's point is 1 MB; the sweep traces the
// whole axis, one ride pass per point.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace selcache;
  const auto fopt = bench::parse_figure_options(argc, argv);
  std::vector<bench::SweepPoint> points;
  for (unsigned kb : {256u, 512u, 1024u, 2048u}) {
    core::MachineConfig m = core::larger_l2();
    m.hierarchy.l2.size_bytes = std::uint64_t{kb} * 1024;
    m.name = "L2 " + std::to_string(kb) + "K";
    points.push_back(
        {m, "Figure 6: L2 size " + std::to_string(kb) + "K (bypass scheme)" +
                (kb == 1024 ? " [paper point]" : "")});
  }
  return bench::run_figure_sweep(std::move(points), hw::SchemeKind::Bypass,
                                 fopt);
}
