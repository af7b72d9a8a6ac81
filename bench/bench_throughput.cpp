// Engine-throughput benchmark: simulated accesses/second for the full
// 13-benchmark DATE-2003 sweep — serial vs. the parallel experiment engine,
// interpreted vs. the trace-tape record/replay path, and per-point vs.
// shared-decode multi-config replay.
//
//   bench_throughput [--threads N] [--out FILE] [--scheme bypass|victim]
//
// Reports wall-clock, simulated-accesses/second, the parallel speedup, the
// tape record/replay throughput plus encoded density, the batched
// multi-config replay throughput over a 4-point memory-latency axis
// (per-point replay vs shared decode), and the persistent result store's
// cold-fill vs warm-serve suite times. Verifies every pass is
// bit-identical to the serial interpreted one, and writes a JSON baseline
// (default results/BENCH_throughput.json) that
// tools/check_bench_regression.py compares future runs against.
//
// Every timing section records the worker-thread count it actually used;
// `hardware_threads` reports the host so the regression checker can skip
// parallel-speedup comparisons on single-core machines.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/report.h"
#include "core/runner.h"
#include "store/store.h"
#include "support/thread_pool.h"
#include "tape/cache.h"

namespace {

using selcache::core::ImprovementRow;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t total_accesses(const std::vector<ImprovementRow>& rows) {
  std::uint64_t n = 0;
  for (const auto& r : rows) n += r.accesses;
  return n;
}

bool identical(const std::vector<ImprovementRow>& a,
               const std::vector<ImprovementRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].benchmark != b[i].benchmark || a[i].category != b[i].category ||
        a[i].base_cycles != b[i].base_cycles || a[i].pct != b[i].pct ||
        a[i].accesses != b[i].accesses ||
        a[i].stats.all() != b[i].stats.all())
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 8;
  std::string out = "results/BENCH_throughput.json";
  selcache::hw::SchemeKind scheme = selcache::hw::SchemeKind::Bypass;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      scheme = std::strcmp(argv[++i], "victim") == 0
                   ? selcache::hw::SchemeKind::Victim
                   : selcache::hw::SchemeKind::Bypass;
    } else {
      std::fprintf(stderr,
                   "usage: bench_throughput [--threads N] [--out FILE]"
                   " [--scheme bypass|victim]\n");
      return 2;
    }
  }

  const unsigned hw_threads =
      selcache::support::ThreadPool::hardware_threads();
  const selcache::core::MachineConfig machine = selcache::core::base_machine();
  selcache::core::RunOptions opt;
  opt.scheme = scheme;

  std::printf("engine throughput: full 13-benchmark sweep, scheme=%s\n",
              selcache::hw::to_string(scheme));
  std::printf("host: %u hardware thread(s)\n", hw_threads);

  auto t0 = std::chrono::steady_clock::now();
  const auto serial_rows = selcache::core::sweep_suite(machine, opt);
  const double serial_s = seconds_since(t0);
  const std::uint64_t accesses = total_accesses(serial_rows);
  const double serial_aps = static_cast<double>(accesses) / serial_s;
  std::printf("serial:    %6.2fs  %12.0f accesses/s\n", serial_s,
              serial_aps);

  t0 = std::chrono::steady_clock::now();
  const auto parallel_rows = selcache::core::sweep_suite(
      machine, opt, selcache::core::ParallelSweepOptions{.num_threads = threads});
  const double parallel_s = seconds_since(t0);
  const double parallel_aps = static_cast<double>(accesses) / parallel_s;
  const double speedup = serial_s / parallel_s;
  std::printf("%2u threads:%6.2fs  %12.0f accesses/s  (%.2fx)\n", threads,
              parallel_s, parallel_aps, speedup);

  // Tape phases: one serial sweep that records every (workload, version)
  // cell into a fresh cache, then one that replays all 65 tapes. Replay
  // throughput over interpreted throughput is the record-once/replay-many
  // win each extra machine point of a figure sweep enjoys.
  selcache::tape::TapeCache cache;
  selcache::core::RunOptions taped = opt;
  taped.reuse_tape = true;
  taped.tape_cache = &cache;

  t0 = std::chrono::steady_clock::now();
  const auto recorded_rows = selcache::core::sweep_suite(machine, taped);
  const double record_s = seconds_since(t0);
  const double record_aps = static_cast<double>(accesses) / record_s;
  std::printf("tape rec:  %6.2fs  %12.0f accesses/s  (%zu tapes)\n", record_s,
              record_aps, cache.size());

  t0 = std::chrono::steady_clock::now();
  const auto replayed_rows = selcache::core::sweep_suite(machine, taped);
  const double replay_s = seconds_since(t0);
  const double replay_aps = static_cast<double>(accesses) / replay_s;
  const double replay_speedup = serial_s / replay_s;
  std::printf("tape play: %6.2fs  %12.0f accesses/s  (%.2fx vs interpret)\n",
              replay_s, replay_aps, replay_speedup);

  const double tape_bytes_per_access =
      cache.total_data_accesses() == 0
          ? 0.0
          : static_cast<double>(cache.total_bytes()) /
                static_cast<double>(cache.total_data_accesses());
  std::printf("tape size: %.1f MB total, %.2f bytes/recorded access\n",
              static_cast<double>(cache.total_bytes()) / (1024.0 * 1024.0),
              tape_bytes_per_access);

  // Multi-config replay phases over a 4-point memory-latency axis (the
  // fig5_memlat shape), all points served from the tapes recorded above:
  // the classic loop replays each cell once PER POINT; the shared-decode
  // engine decodes each cell once and fans the batches out to all points.
  std::vector<selcache::core::MachineConfig> axis;
  for (unsigned lat : {100u, 150u, 200u, 300u}) {
    selcache::core::MachineConfig m = selcache::core::higher_mem_latency();
    m.hierarchy.mem.access_latency = lat;
    m.name = "memlat" + std::to_string(lat);
    axis.push_back(m);
  }
  // Cell-level fan-out only helps with real cores; record what we used.
  const unsigned mr_threads = hw_threads > 1 ? threads : 1;
  const selcache::core::ParallelSweepOptions mr_par{.num_threads = mr_threads};
  const std::uint64_t axis_accesses =
      accesses * static_cast<std::uint64_t>(axis.size());

  t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<ImprovementRow>> per_point_rows;
  for (const auto& m : axis)
    per_point_rows.push_back(selcache::core::sweep_suite(m, taped, mr_par));
  const double per_point_s = seconds_since(t0);
  std::printf("axis x%zu per-point:     %6.2fs  %12.0f accesses/s\n",
              axis.size(), per_point_s,
              static_cast<double>(axis_accesses) / per_point_s);

  t0 = std::chrono::steady_clock::now();
  const auto shared_rows =
      selcache::core::sweep_axis_shared_decode(axis, taped, mr_par);
  const double shared_s = seconds_since(t0);
  const double multi_replay_aps =
      static_cast<double>(axis_accesses) / shared_s;
  const double shared_speedup = shared_s > 0 ? per_point_s / shared_s : 0.0;
  std::printf("axis x%zu shared-decode: %6.2fs  %12.0f accesses/s  "
              "(%.2fx vs per-point)\n",
              axis.size(), shared_s, multi_replay_aps, shared_speedup);

  bool multi_replay_identical = shared_rows.size() == axis.size();
  for (std::size_t i = 0; multi_replay_identical && i < axis.size(); ++i)
    multi_replay_identical = identical(per_point_rows[i], shared_rows[i]);

  // Store phases: one sweep that fills a fresh on-disk result store (cold),
  // then one that serves every cell from it (warm). Warm over cold is the
  // incremental-sweep win a repeated suite run enjoys across processes.
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "selcache_bench_store")
          .string();
  selcache::store::ResultStore rstore(store_dir);
  rstore.clear();
  selcache::core::RunOptions stored = opt;
  stored.result_store = &rstore;

  t0 = std::chrono::steady_clock::now();
  const auto store_cold_rows = selcache::core::sweep_suite(machine, stored);
  const double store_cold_s = seconds_since(t0);
  std::printf("store cold:%6.2fs  (%llu cells written)\n", store_cold_s,
              static_cast<unsigned long long>(rstore.counters().writes));

  t0 = std::chrono::steady_clock::now();
  const auto store_warm_rows = selcache::core::sweep_suite(machine, stored);
  const double store_warm_s = seconds_since(t0);
  const auto sc = rstore.counters();
  std::printf("store warm:%6.2fs  (%llu hits, %llu misses, %.1fx vs cold)\n",
              store_warm_s, static_cast<unsigned long long>(sc.hits),
              static_cast<unsigned long long>(sc.misses),
              store_warm_s > 0 ? store_cold_s / store_warm_s : 0.0);
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  const bool deterministic = identical(serial_rows, parallel_rows) &&
                             identical(serial_rows, recorded_rows) &&
                             identical(serial_rows, replayed_rows) &&
                             identical(serial_rows, store_cold_rows) &&
                             identical(serial_rows, store_warm_rows) &&
                             multi_replay_identical;
  std::printf("determinism: parallel + tape + multi-replay + store rows %s "
              "serial rows\n",
              deterministic ? "IDENTICAL to" : "DIFFER from");

  char json[4096];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"benchmark\": \"bench_throughput\",\n"
                "  \"scheme\": \"%s\",\n"
                "  \"workloads\": %zu,\n"
                "  \"hardware_threads\": %u,\n"
                "  \"threads\": %u,\n"
                "  \"simulated_accesses\": %llu,\n"
                "  \"serial_seconds\": %.3f,\n"
                "  \"serial_accesses_per_sec\": %.0f,\n"
                "  \"serial_threads_used\": 1,\n"
                "  \"parallel_seconds\": %.3f,\n"
                "  \"parallel_accesses_per_sec\": %.0f,\n"
                "  \"parallel_threads_used\": %u,\n"
                "  \"speedup\": %.3f,\n"
                "  \"tape_record_accesses_per_sec\": %.0f,\n"
                "  \"tape_replay_accesses_per_sec\": %.0f,\n"
                "  \"tape_bytes_per_access\": %.3f,\n"
                "  \"multi_replay_points\": %zu,\n"
                "  \"multi_replay_threads_used\": %u,\n"
                "  \"multi_replay_accesses_per_sec\": %.0f,\n"
                "  \"fig5_per_point_seconds\": %.3f,\n"
                "  \"fig5_shared_decode_seconds\": %.3f,\n"
                "  \"fig5_shared_decode_speedup\": %.3f,\n"
                "  \"store_cold_suite_seconds\": %.3f,\n"
                "  \"store_warm_suite_seconds\": %.3f,\n"
                "  \"deterministic\": %s\n"
                "}\n",
                selcache::hw::to_string(scheme), serial_rows.size(),
                hw_threads, threads,
                static_cast<unsigned long long>(accesses), serial_s,
                serial_aps, parallel_s, parallel_aps, threads, speedup,
                record_aps, replay_aps,
                tape_bytes_per_access, axis.size(), mr_threads,
                multi_replay_aps, per_point_s, shared_s, shared_speedup,
                store_cold_s, store_warm_s, deterministic ? "true" : "false");
  if (!selcache::core::write_text_file(out, json)) {
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  } else {
    std::printf("baseline -> %s\n", out.c_str());
  }
  return deterministic ? 0 : 1;
}
