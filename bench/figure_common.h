// Shared driver for the figure/table benches: run the 13-benchmark suite on
// one machine configuration — or a whole axis of them — and print the
// paper-style improvement table per point.
//
// Every axis runs on core::sweep_axis: points that differ only in memory
// latency share one ride pass, priced at each latency, and every other
// point gets a ride pass of its own.
//
// Every figure bench and bench_table3 accept the same flags (strict —
// unknown flags exit 2):
//   --threads N       worker threads for the sweep's units (default:
//                     serial; max 4096)
//   --max-points N    truncate a sweep axis to its first N points (smoke
//                     tests / CI)
//   --store DIR       persistent result store: cells already in DIR are
//                     loaded instead of simulated; new cells are written
//                     back for the next run
//   --store-readonly  consult the store but never write to it
//   --store-clear     empty the store before the run (cold-start baseline)
//
// Numeric values are strict: anything but a plain non-negative decimal
// number in range exits 2, never a silent 0 that changes the run. The
// benches without flags (bench_table2, the ablations, bench_energy and
// bench_sweep_l1size) refuse every argument the same way.
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/runner.h"
#include "store/store.h"
#include "support/signal_guard.h"

namespace selcache::bench {

struct FigureOptions {
  unsigned threads = 0;     ///< 0 = serial
  int max_points = -1;      ///< -1 = all points of a sweep axis
  std::string store_dir;    ///< empty = no persistent store
  bool store_readonly = false;
  bool store_clear = false;
};

/// Parse the shared figure-bench flags; exits(2) on anything unrecognized.
inline FigureOptions parse_figure_options(int argc, char** argv) {
  FigureOptions f;
  const auto usage = [&argv]() {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--max-points N] [--store DIR]"
                 " [--store-readonly] [--store-clear]\n",
                 argv[0]);
    std::exit(2);
  };
  // A plain non-negative decimal no larger than `max`, else exit 2: junk
  // such as "abc", "x" or "-3" must not quietly become 0 or a huge count.
  const auto count = [&usage](const char* s, unsigned long max) {
    char* end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(s[0])) || *end != '\0' ||
        errno == ERANGE || v > max)
      usage();
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      f.threads = static_cast<unsigned>(count(argv[++i], 4096));
    } else if (std::strcmp(argv[i], "--max-points") == 0 && i + 1 < argc) {
      f.max_points = static_cast<int>(count(argv[++i], INT_MAX));
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      f.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-readonly") == 0) {
      f.store_readonly = true;
    } else if (std::strcmp(argv[i], "--store-clear") == 0) {
      f.store_clear = true;
    } else {
      usage();
    }
  }
  if (f.store_dir.empty() && (f.store_readonly || f.store_clear)) {
    std::fprintf(stderr,
                 "%s: --store-readonly / --store-clear require --store DIR\n",
                 argv[0]);
    std::exit(2);
  }
  if (f.store_readonly && f.store_clear) {
    std::fprintf(stderr,
                 "%s: --store-readonly and --store-clear are exclusive\n",
                 argv[0]);
    std::exit(2);
  }
  return f;
}

/// For the benches that take no flags: any argument prints a one-line
/// usage and exits 2, so a flag such as --threads never runs the bench in
/// a way the caller did not ask for.
inline void refuse_arguments(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
  std::exit(2);
}

/// Run `sweep(opt)` under the shared --store flags and a signal guard; opt
/// carries the store (or none) and `sweep` sets the rest. Returns 0 once it
/// finished (the store's accounting then goes to stderr, so stdout stays
/// byte-identical cold vs warm), 2 when the store cannot be opened, and
/// 128+signo when SIGINT/SIGTERM stopped it: the sweep starts no further
/// unit, nothing is printed to stdout, and the store cells saved so far
/// stay valid for the next run.
template <typename Sweep>
int guarded_sweep(const FigureOptions& fopt, std::size_t points,
                  const Sweep& sweep) {
  core::RunOptions opt;
  std::unique_ptr<store::ResultStore> rstore;
  if (!fopt.store_dir.empty()) {
    try {
      rstore = std::make_unique<store::ResultStore>(
          fopt.store_dir,
          store::ResultStore::Options{.read_only = fopt.store_readonly});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot open store: %s\n", e.what());
      return 2;
    }
    if (fopt.store_clear) rstore->clear();
    opt.result_store = rstore.get();
  }
  support::SignalGuard guard;
  try {
    sweep(opt);
  } catch (const support::RunSuspended&) {
    std::fprintf(stderr,
                 "interrupted after 0 of %zu machine points; persisted "
                 "store entries stay valid for the next run\n",
                 points);
    return support::SignalGuard::exit_code();
  }
  if (rstore != nullptr)
    std::fprintf(stderr, "%s\n", rstore->summary().c_str());
  return 0;
}

/// One machine point of a sweep axis.
struct SweepPoint {
  core::MachineConfig machine;
  std::string title;  ///< full figure title printed above this point's table
};

namespace detail {

/// `s` lowercased, each run of non-alphanumerics one '_' (none at the ends).
inline std::string slug(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  if (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

inline void maybe_write_csv(const SweepPoint& point,
                            const std::vector<core::ImprovementRow>& rows) {
  // Optional plotting output: SELCACHE_CSV_DIR=<dir> writes one CSV per
  // figure point, named after the title's leading word(s) and the point's
  // machine, e.g. figure_5_mem_lat_100.csv.
  const char* dir = std::getenv("SELCACHE_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path =
      std::string(dir) + "/" +
      slug(point.title.substr(0, point.title.find(':'))) + "_" +
      slug(point.machine.name) + ".csv";
  if (!core::write_text_file(path, core::figure_csv(rows)))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace detail

/// Run the full suite over every machine point of one axis with one
/// core::sweep_axis call, then print each point's table and one timing
/// footer.
inline int run_figure_sweep(std::vector<SweepPoint> points,
                            hw::SchemeKind scheme, const FigureOptions& fopt) {
  if (fopt.max_points >= 0 &&
      static_cast<std::size_t>(fopt.max_points) < points.size())
    points.resize(static_cast<std::size_t>(fopt.max_points));
  std::vector<core::MachineConfig> machines;
  machines.reserve(points.size());
  for (const SweepPoint& p : points) machines.push_back(p.machine);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<core::ImprovementRow>> rows;
  const int rc = guarded_sweep(fopt, points.size(), [&](core::RunOptions opt) {
    opt.scheme = scheme;
    rows = core::sweep_axis(machines, opt, {.num_threads = fopt.threads});
  });
  if (rc != 0) return rc;
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("%s", core::format_machine(points[i].machine).c_str());
    std::printf("%s\n",
                core::format_figure(points[i].title, rows[i]).c_str());
    detail::maybe_write_csv(points[i], rows[i]);
  }
  std::printf("(simulated in %.1fs: %zu machine point%s, scheme=%s)\n", dt,
              points.size(), points.size() == 1 ? "" : "s",
              hw::to_string(scheme));
  return 0;
}

/// Single-point figure (Figure 4 and the ablations).
inline int run_figure(const core::MachineConfig& machine,
                      const std::string& title,
                      hw::SchemeKind scheme = hw::SchemeKind::Bypass,
                      const FigureOptions& fopt = {}) {
  return run_figure_sweep({{machine, title}}, scheme, fopt);
}

}  // namespace selcache::bench
