// The four workloads: input set-up, one timed pass, and the reference.
#include <array>
#include <bit>
#include <future>
#include <stdexcept>

#include "bench.h"
#include "codegen/data_env.h"
#include "store/store.h"
#include "support/fingerprint.h"
#include "support/thread_pool.h"
#include "tape/cache.h"
#include "tape/multi_replayer.h"

namespace perfbench {

namespace core = selcache::core;
namespace store = selcache::store;
namespace tape = selcache::tape;
using selcache::hw::SchemeKind;

namespace {

core::ParallelSweepOptions parallel(const Config& c) {
  return {.num_threads = c.threads};
}

/// The default engine of a multi-point figure bench: record each cell's
/// tape at the first point, decode it once for the other points.
core::RunOptions shared_decode(const Config& c, tape::TapeCache& cache) {
  core::RunOptions opt = run_options(c);
  opt.reuse_tape = true;
  opt.tape_cache = &cache;
  opt.batch = tape::kDefaultBatchOps;
  return opt;
}

std::size_t suite_cells() {
  return selcache::workloads::all_workloads().size() *
         core::kAllVersions.size();
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "suite_interp") return Workload::SuiteInterp;
  if (name == "axis_memlat") return Workload::AxisMemlat;
  if (name == "suite_replay_victim") return Workload::SuiteReplayVictim;
  if (name == "store_warm_axis") return Workload::StoreWarmAxis;
  return std::nullopt;
}

std::vector<core::MachineConfig> machine_points(Workload w) {
  if (w == Workload::SuiteInterp || w == Workload::SuiteReplayVictim)
    return {core::base_machine()};
  // The bench_fig5_memlat axis: points differ only in memory latency.
  std::vector<core::MachineConfig> axis;
  for (unsigned lat : {100u, 150u, 200u, 300u}) {
    core::MachineConfig m = core::higher_mem_latency();
    m.hierarchy.mem.access_latency = lat;
    m.name = "Mem. Lat. " + std::to_string(lat);
    axis.push_back(m);
  }
  return axis;
}

core::RunOptions run_options(const Config& c) {
  core::RunOptions opt;
  opt.scheme = c.workload == Workload::SuiteReplayVictim ? SchemeKind::Victim
                                                         : SchemeKind::Bypass;
  opt.data_seed = c.seed;
  return opt;
}

std::vector<std::uint64_t> cell_digests(const Rows& rows) {
  std::vector<std::uint64_t> out;
  for (std::size_t p = 0; p < rows.size(); ++p) {
    for (const core::ImprovementRow& row : rows[p]) {
      const auto& stats = row.stats.all();
      for (core::Version v : core::kAllVersions) {
        const std::string prefix = std::string(core::version_key(v)) + ".";
        std::uint64_t h = selcache::fnv1a_str(selcache::kFnv1aOffset,
                                              row.benchmark);
        h = selcache::fnv1a_u64(h, static_cast<std::uint64_t>(row.category));
        h = selcache::fnv1a_u64(h, p);
        h = selcache::fnv1a_str(h, prefix);
        for (auto it = stats.lower_bound(prefix);
             it != stats.end() && it->first.starts_with(prefix); ++it) {
          h = selcache::fnv1a_str(h, it->first);
          h = selcache::fnv1a_u64(h, it->second);
        }
        h = selcache::fnv1a_u64(
            h, v == core::Version::Base
                   ? row.base_cycles
                   : std::bit_cast<std::uint64_t>(row.pct.at(v)));
        out.push_back(h);
      }
    }
  }
  return out;
}

void setup(const Config& c) {
  const std::vector<core::MachineConfig> machines = machine_points(c.workload);
  switch (c.workload) {
    case Workload::SuiteInterp:
    case Workload::AxisMemlat: {
      // These tasks have no set-up of their own: every cell builds its
      // inputs inside the pass. This stands in for one: it builds those
      // inputs once (the programs, their five code products and the seeded
      // data of each) and discards them; the pass does not use them.
      const core::RunOptions opt = run_options(c);
      for (const auto& w : selcache::workloads::all_workloads()) {
        const selcache::ir::Program base = w.build();
        for (core::Version v : core::kAllVersions) {
          const selcache::ir::Program product =
              core::prepare_program(base, v, opt.optimize);
          const selcache::codegen::DataEnv env(product,
                                               {.seed = opt.data_seed});
          require(env.total_footprint() > 0, "no data for " + w.name);
        }
      }
      return;
    }
    case Workload::SuiteReplayVictim: {
      // `selcache suite --scheme bypass --reuse-tape --store DIR`: record
      // every cell's tape under the bypass scheme and persist it.
      store::ResultStore s(c.work_dir);
      s.clear();
      tape::TapeCache cache;
      core::RunOptions opt = run_options(c);
      opt.scheme = SchemeKind::Bypass;
      opt.reuse_tape = true;
      opt.tape_cache = &cache;
      opt.result_store = &s;
      core::sweep_suite(machines.front(), opt, parallel(c));
      require(s.persist_tapes(cache) == suite_cells(),
              "set-up tapes were not persisted: " + s.last_write_error());
      return;
    }
    case Workload::StoreWarmAxis: {
      // A cold `bench_fig5_memlat --store DIR`: every cell and tape lands
      // in the store.
      store::ResultStore s(c.work_dir);
      s.clear();
      tape::TapeCache cache;
      core::RunOptions opt = shared_decode(c, cache);
      opt.result_store = &s;
      core::sweep_axis_shared_decode(machines, opt, parallel(c));
      require(s.counters().writes == machines.size() * suite_cells() &&
                  s.persist_tapes(cache) == suite_cells(),
              "the store was not filled: " + s.last_write_error());
      return;
    }
  }
}

Rows run_pass(const Config& c) {
  const std::vector<core::MachineConfig> machines = machine_points(c.workload);
  switch (c.workload) {
    case Workload::SuiteInterp:
      // `selcache suite --threads N`.
      return {core::sweep_suite(machines.front(), run_options(c),
                                parallel(c))};
    case Workload::AxisMemlat: {
      // `bench_fig5_memlat --threads N` with a fresh tape cache.
      tape::TapeCache cache;
      return core::sweep_axis_shared_decode(machines, shared_decode(c, cache),
                                            parallel(c));
    }
    case Workload::SuiteReplayVictim: {
      // `selcache suite --scheme victim --reuse-tape --store DIR
      // --store-readonly`: every cell misses the store and replays its
      // bypass-recorded tape through the streaming replayer.
      store::ResultStore s(c.work_dir,
                           store::ResultStore::Options{.read_only = true});
      tape::TapeCache cache;
      require(s.preload_tapes(cache) == suite_cells(),
              "set-up tapes missing from " + c.work_dir);
      core::RunOptions opt = run_options(c);
      opt.reuse_tape = true;
      opt.tape_cache = &cache;
      opt.result_store = &s;
      return {core::sweep_suite(machines.front(), opt, parallel(c))};
    }
    case Workload::StoreWarmAxis: {
      // `bench_fig5_memlat --store DIR --store-readonly` on a warm store.
      store::ResultStore s(c.work_dir,
                           store::ResultStore::Options{.read_only = true});
      tape::TapeCache cache;
      s.preload_tapes(cache);
      core::RunOptions opt = shared_decode(c, cache);
      opt.result_store = &s;
      Rows rows = core::sweep_axis_shared_decode(machines, opt, parallel(c));
      require(s.counters().hits == machines.size() * suite_cells(),
              "a cell missed the warm store in " + c.work_dir);
      return rows;
    }
  }
  throw std::logic_error("unknown workload");
}

Rows reference(const Config& c) {
  const std::vector<core::MachineConfig> machines = machine_points(c.workload);
  const auto& suite = selcache::workloads::all_workloads();
  const core::RunOptions opt = run_options(c);
  constexpr std::size_t nv = core::kAllVersions.size();

  // Cells share nothing, so running one task per cell on a pool computes
  // the same results as a serial loop without going through a sweep engine.
  selcache::support::ThreadPool pool(c.threads);
  std::vector<std::future<core::RunResult>> cells;  // [point][workload][version]
  for (const core::MachineConfig& m : machines)
    for (const auto& w : suite)
      for (core::Version v : core::kAllVersions)
        cells.push_back(pool.submit(
            [&w, &m, v, &opt] { return core::run_version(w, m, v, opt); }));

  Rows rows(machines.size());
  auto next = cells.begin();
  for (std::size_t p = 0; p < machines.size(); ++p)
    for (const auto& w : suite) {
      std::array<core::RunResult, nv> cell;
      for (core::RunResult& r : cell) r = (next++)->get();
      rows[p].push_back(core::make_improvement_row(w, cell));
    }
  return rows;
}

}  // namespace perfbench
