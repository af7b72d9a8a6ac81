// Shared driver for the figure/table benches: run the 13-benchmark suite on
// one machine configuration — or a whole axis of them — and print the
// paper-style improvement table per point.
//
// Every figure bench accepts the same flags (strict — unknown flags exit 2):
//   --threads N       worker threads for the (workload, version) fan-out
//                     (default: serial; max 4096)
//   --no-reuse-tape   interpret every point instead of record-once/
//                     replay-many (the default simulates each (workload,
//                     version) cell once, at the first machine point, and
//                     replays its tape at every point that differs from it
//                     in more than memory latency; a single-point run
//                     always interprets)
//   --max-points N    truncate a sweep axis to its first N points (smoke
//                     tests / CI)
//   --store DIR       persistent result store: cells already in DIR are
//                     loaded instead of simulated; new cells (and tapes)
//                     are written back for the next run
//   --store-readonly  consult the store but never write to it
//   --store-clear     empty the store before the run (cold-start baseline)
//   --batch N         ops per decoded batch for the shared-decode engine
//                     (default tape::kDefaultBatchOps). A multi-point taped
//                     axis then decodes each cell's tape ONCE and fans the
//                     batches out to every machine point. 0 restores the
//                     classic per-point replay loop.
//
// Numeric values are strict: anything but a plain non-negative decimal
// number in range exits 2, never a silent 0 that changes the run.
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
#include "tape/cache.h"
#include "tape/multi_replayer.h"

namespace selcache::bench {

struct FigureOptions {
  unsigned threads = 0;     ///< 0 = serial
  bool reuse_tape = true;   ///< record-once / replay-many across points
  int max_points = -1;      ///< -1 = all points of a sweep axis
  std::string store_dir;    ///< empty = no persistent store
  bool store_readonly = false;
  bool store_clear = false;
  /// Ops per decoded batch for the shared-decode axis engine; 0 = classic
  /// per-point replay (decode each cell's tape once per machine point).
  std::uint32_t batch = tape::kDefaultBatchOps;
};

/// Parse the shared figure-bench flags; exits(2) on anything unrecognized.
inline FigureOptions parse_figure_options(int argc, char** argv) {
  FigureOptions f;
  const auto usage = [&argv]() {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--no-reuse-tape]"
                 " [--max-points N] [--store DIR] [--store-readonly]"
                 " [--store-clear] [--batch N]\n",
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
    } else if (std::strcmp(argv[i], "--no-reuse-tape") == 0) {
      f.reuse_tape = false;
    } else if (std::strcmp(argv[i], "--max-points") == 0 && i + 1 < argc) {
      f.max_points = static_cast<int>(count(argv[++i], INT_MAX));
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      f.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-readonly") == 0) {
      f.store_readonly = true;
    } else if (std::strcmp(argv[i], "--store-clear") == 0) {
      f.store_clear = true;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      // 0 is valid and flips the engine, so junk must not become it.
      f.batch = static_cast<std::uint32_t>(count(argv[++i], 0xffffffffUL));
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

/// One machine point of a sweep axis.
struct SweepPoint {
  core::MachineConfig machine;
  std::string title;  ///< full figure title printed above this point's table
};

namespace detail {

inline void maybe_write_csv(const std::string& title,
                            const std::vector<core::ImprovementRow>& rows) {
  // Optional plotting output: SELCACHE_CSV_DIR=<dir> writes one CSV per
  // figure point, named after the title's leading word(s).
  const char* dir = std::getenv("SELCACHE_CSV_DIR");
  if (dir == nullptr) return;
  std::string slug;
  for (char c : title) {
    if (c == ':') break;
    slug.push_back(isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(tolower(c))
                       : '_');
  }
  const std::string path = std::string(dir) + "/" + slug + ".csv";
  if (!core::write_text_file(path, core::figure_csv(rows)))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace detail

/// Run the full suite over every machine point of one axis. With
/// fopt.reuse_tape (the default) and more than one point, each of the 13x5
/// cells is interpreted once, at the first point; points that differ from
/// it only in memory latency are priced by that same simulation. A cell's
/// tape is recorded only when something reads it — a later point that
/// replays it (bit-identically) or a --store that persists it — so an
/// N-point axis pays the IR pipeline once, not N times.
inline int run_figure_sweep(std::vector<SweepPoint> points,
                            hw::SchemeKind scheme, const FigureOptions& fopt) {
  if (fopt.max_points >= 0 &&
      static_cast<std::size_t>(fopt.max_points) < points.size())
    points.resize(static_cast<std::size_t>(fopt.max_points));

  tape::TapeCache cache;
  core::RunOptions opt;
  opt.scheme = scheme;
  // A single-point run has nothing to replay, so skip the recording cost.
  opt.reuse_tape = fopt.reuse_tape && points.size() > 1;
  opt.tape_cache = &cache;

  // Persistent store: cells already on disk are loaded instead of simulated,
  // and persisted tapes make even the cold cells replay-from-disk. A warm
  // store turns a whole figure run into pure load + formatting.
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
    // Tapes persisted by an earlier run mean no cell needs the IR pipeline:
    // when every point's tapes are preloaded, "recorded" below is really
    // replayed-from-disk.
    if (opt.reuse_tape) rstore->preload_tapes(cache);
    opt.result_store = rstore.get();
  }
  const core::ParallelSweepOptions par{.num_threads = fopt.threads};
  // Persist fresh tapes and print the store accounting — to stderr, so
  // stdout stays byte-identical cold vs warm.
  const auto finish_store = [&] {
    if (rstore == nullptr) return;
    const std::size_t tapes = opt.reuse_tape ? rstore->persist_tapes(cache) : 0;
    std::fprintf(stderr, "%s\n", rstore->summary(tapes).c_str());
  };

  // Graceful shutdown: a SIGINT/SIGTERM mid-axis finishes nothing torn.
  // The sweep running when it arrives completes, but its tables are not
  // printed; tapes and store cells already persisted stay valid (a rerun
  // serves them as hits), and the process exits with the conventional
  // 128+signo code.
  support::SignalGuard guard;
  const auto interrupted = [&](std::size_t done) {
    if (!support::SignalGuard::stop_requested()) return false;
    std::fprintf(stderr,
                 "interrupted after %zu of %zu machine points; persisted "
                 "store entries stay valid for the next run\n",
                 done, points.size());
    if (rstore != nullptr && opt.reuse_tape) rstore->persist_tapes(cache);
    return true;
  };

  const auto sweep_t0 = std::chrono::steady_clock::now();

  // Shared-decode engine (the default for taped multi-point axes): every
  // (workload, version) cell's tape is decoded ONCE and its batches fan out
  // to all machine points, instead of a full decode per point; points that
  // differ only in memory latency also share one structural simulation,
  // priced at each latency, and a cell whose tape nothing reads records
  // none. The tables are bit-identical to the per-point loop below (same
  // rows, same store cells); only the timing footers differ — and the
  // figure equivalence test strips those before diffing.
  if (opt.reuse_tape && points.size() > 1 && fopt.batch > 0) {
    opt.batch = fopt.batch;
    std::vector<core::MachineConfig> machines;
    machines.reserve(points.size());
    for (const SweepPoint& p : points) machines.push_back(p.machine);
    const auto all_rows = core::sweep_axis_shared_decode(machines, opt, par);
    if (interrupted(0)) return support::SignalGuard::exit_code();
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::printf("%s", core::format_machine(points[i].machine).c_str());
      std::printf("%s", core::format_figure(points[i].title,
                                            all_rows[i]).c_str());
      std::printf("\n");
      detail::maybe_write_csv(points[i].title, all_rows[i]);
    }
    const auto total = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - sweep_t0)
                           .count();
    std::printf("axis total: %zu machine points in %.1fs "
                "(shared-decode, batch=%u)\n",
                points.size(), total, fopt.batch);
    finish_store();
    return 0;
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = core::sweep_suite(points[i].machine, opt, par);
    if (interrupted(i)) return support::SignalGuard::exit_code();
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::printf("%s", core::format_machine(points[i].machine).c_str());
    std::printf("%s", core::format_figure(points[i].title, rows).c_str());
    const char* mode = !opt.reuse_tape ? "interpreted"
                       : i == 0        ? "recorded"
                                       : "replayed";
    std::printf("(simulated in %.1fs, scheme=%s, %s)\n\n", dt,
                hw::to_string(scheme), mode);
    detail::maybe_write_csv(points[i].title, rows);
  }
  const auto total = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_t0)
                         .count();
  if (points.size() > 1)
    std::printf("axis total: %zu machine points in %.1fs%s\n",
                points.size(), total,
                fopt.reuse_tape ? " (record-once/replay-many)" : "");
  finish_store();
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
