// Figure 5: memory-latency axis. The paper's point is 200 cycles; the sweep
// traces the whole axis. Its points differ only in memory latency, so they
// share one ride pass: each ride's simulations price every latency.
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace selcache;
  const auto fopt = bench::parse_figure_options(argc, argv);
  std::vector<bench::SweepPoint> points;
  for (unsigned lat : {100u, 150u, 200u, 300u}) {
    core::MachineConfig m = core::higher_mem_latency();
    m.hierarchy.mem.access_latency = lat;
    m.name = "Mem. Lat. " + std::to_string(lat);
    points.push_back(
        {m, "Figure 5: memory latency " + std::to_string(lat) +
                " cycles (bypass scheme)" +
                (lat == 200 ? " [paper point]" : "")});
  }
  return bench::run_figure_sweep(std::move(points), hw::SchemeKind::Bypass,
                                 fopt);
}
