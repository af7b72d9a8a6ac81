// The traced run: per-layer costs of a workload, measured by timing calls
// into each module's public functions from here. Nothing inside src/ is
// instrumented. A layer with no public call of its own (the cpu timing
// model) is derived by run.py from the spans around it.
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "codegen/data_env.h"
#include "codegen/trace_engine.h"
#include "memsys/hierarchy.h"
#include "store/store.h"
#include "tape/cache.h"
#include "tape/multi_replayer.h"
#include "tape/tape.h"

namespace perfbench {

namespace core = selcache::core;
namespace memsys = selcache::memsys;
namespace store = selcache::store;
namespace tape = selcache::tape;
using selcache::Addr;
using selcache::hw::SchemeKind;

namespace {

/// In-memory span log: name, start, end, parent span and cell id of every
/// call it wraps, written out as JSONL once the run ends. A disabled log
/// records nothing, which gives the untraced twin of a traced pass.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::string cell = {}) : log_(log) {
      if (!log_.enabled_) return;
      index_ = log_.spans_.size();
      const std::size_t parent = log_.open_.empty() ? 0 : log_.open_.back();
      if (cell.empty() && parent != 0) cell = log_.spans_[parent - 1].cell;
      log_.spans_.push_back({parent, name, std::move(cell), log_.now_ns(), 0});
      log_.open_.push_back(index_ + 1);
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end_ns = log_.now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  /// One line per span: {"id", "parent" (0 = root), "name", "cell",
  /// "start_ns", "end_ns"}; ids are 1-based.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
          << ", \"name\": \"" << s.name << "\", \"cell\": \"" << s.cell
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
    out.close();
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::size_t parent;
    const char* name;
    std::string cell;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< ids of the spans still open
};

/// A CPU that does nothing: it counts the operations it receives and folds
/// their addresses, so the interpreter's address arithmetic stays live.
struct NullCpu {
  std::uint64_t ops = 0;
  Addr fold = 0;
  void compute(std::uint64_t n) { ++ops; fold += n; }
  void load(Addr a, bool = false) { ++ops; fold ^= a; }
  void store(Addr a) { ++ops; fold ^= a; }
  void branch(Addr pc, bool) { ++ops; fold ^= pc; }
  void toggle(bool, std::int32_t = -1) { ++ops; }
  void touch_code(Addr pc, std::uint32_t) { ++ops; fold ^= pc; }
};

/// A CPU that only records: the tape layer's builder with no simulation
/// behind it.
struct RecordCpu {
  tape::TapeBuilder& b;
  void compute(std::uint64_t n) { b.compute(n); }
  void load(Addr a, bool dependent = false) { b.load(a, dependent); }
  void store(Addr a) { b.store(a); }
  void branch(Addr pc, bool taken) { b.branch(pc, taken); }
  void toggle(bool on, std::int32_t region = -1) { b.toggle(on, region); }
  void touch_code(Addr pc, std::uint32_t n) { b.ifetch(pc, n); }
};

/// What cpu::TimingModel hands the memory side for a stream: demand loads
/// and stores, instruction fetches split into L1I blocks the way
/// TimingModel::touch_code splits them, and the controller toggles between
/// them. Kept as addr << 2 | AccessKind, a toggle as on << 2 | kToggle.
struct AccessCollector {
  static constexpr std::uint64_t kToggle = 3;  ///< not an AccessKind

  explicit AccessCollector(const core::MachineConfig& m)
      : block(m.hierarchy.l1i.block_size),
        shift(static_cast<unsigned>(std::countr_zero(block))),
        ifetch(m.cpu.model_ifetch) {}

  std::uint32_t block;
  unsigned shift;
  bool ifetch;
  std::vector<std::uint64_t> stream;
  std::uint64_t toggles = 0;

  void push(Addr a, memsys::AccessKind k) {
    if (a >> 62 != 0) throw std::runtime_error("address beyond 2^62");
    stream.push_back(a << 2 | static_cast<std::uint64_t>(k));
  }
  void compute(std::uint64_t) {}
  void load(Addr a, bool = false) { push(a, memsys::AccessKind::Load); }
  void store(Addr a) { push(a, memsys::AccessKind::Store); }
  void branch(Addr, bool) {}
  void toggle(bool on, std::int32_t = -1) {
    stream.push_back(static_cast<std::uint64_t>(on) << 2 | kToggle);
    ++toggles;
  }
  void touch_code(Addr pc, std::uint32_t n_instr) {
    if (!ifetch) return;
    const std::uint32_t bytes = n_instr * 4;
    const Addr first = (pc >> shift) << shift;
    const Addr last = ((pc + (bytes > 0 ? bytes - 1 : 0)) >> shift) << shift;
    for (Addr a = first; a <= last; a += block)
      push(a, memsys::AccessKind::IFetch);
  }
};

/// Drive a fresh hierarchy over `stream`, with `scheme` (nullptr = none)
/// attached and run through a controller the way version `v` runs it:
/// forced on for PureHardware/Combined, off otherwise, and toggled by the
/// stream's toggles. Returns the summed latency.
std::uint64_t drive(const core::MachineConfig& m, memsys::HwScheme* scheme,
                    core::Version v, const std::vector<std::uint64_t>& stream) {
  memsys::Hierarchy h(m.hierarchy);
  selcache::hw::Controller controller(scheme);
  h.attach_hw(scheme);
  controller.force(core::hw_always_on(v));
  std::uint64_t total = 0;
  for (std::uint64_t e : stream) {
    if ((e & 3) == AccessCollector::kToggle)
      controller.toggle((e >> 2) != 0);
    else
      total += h.access(e >> 2, static_cast<memsys::AccessKind>(e & 3));
  }
  return total;
}

store::StoredResult to_stored(const core::RunResult& r) {
  return {.cycles = r.cycles,
          .instructions = r.instructions,
          .l1_miss_rate = r.l1_miss_rate,
          .l2_miss_rate = r.l2_miss_rate,
          .conflict_share = r.conflict_share,
          .toggles = r.toggles,
          .stats = r.stats};
}

core::RunResult from_stored(const store::StoredResult& s) {
  core::RunResult r;
  r.cycles = s.cycles;
  r.instructions = s.instructions;
  r.l1_miss_rate = s.l1_miss_rate;
  r.l2_miss_rate = s.l2_miss_rate;
  r.conflict_share = s.conflict_share;
  r.toggles = s.toggles;
  r.stats = s.stats;
  return r;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

std::string cell_id(const selcache::workloads::WorkloadInfo& w,
                    core::Version v) {
  return w.name + "/" + core::version_key(v);
}

bool has_store(Workload w) {
  return w == Workload::SuiteReplayVictim || w == Workload::StoreWarmAxis;
}

/// What the traced run counts beside its spans.
struct Counts {
  std::uint64_t cells = 0;
  std::uint64_t ops = 0;              ///< operations the interpreter emitted
  std::uint64_t accesses = 0;         ///< hierarchy accesses of the streams
  std::uint64_t tape_bytes = 0;
  std::uint64_t tape_data_accesses = 0;
  std::uint64_t l1d_hits = 0, l1d_misses = 0, l2_hits = 0, l2_misses = 0;
  std::uint64_t mat_touches = 0, sldt_notes = 0, victim_hits = 0;
  std::uint64_t toggles = 0;
  std::uint64_t store_hits = 0, store_misses = 0, store_bytes_read = 0;
  std::uint64_t tapes_preloaded = 0, tapes_replayed = 0;
  std::uint64_t fold = 0;             ///< keeps discarded results live

  void add_stats(const selcache::StatSet& s) {
    l1d_hits += s.get("l1d.hits");
    l1d_misses += s.get("l1d.misses");
    l2_hits += s.get("l2.hits");
    l2_misses += s.get("l2.misses");
    mat_touches += s.get("mat.touches");
    sldt_notes += s.get("sldt.spatial_hits") + s.get("sldt.spatial_misses");
    victim_hits += s.get("victim_l1.hits") + s.get("victim_l2.hits");
    toggles += s.get("controller.toggles_executed");
  }

  /// Bytes a store's reads touched: every tape file (preload reads them
  /// all) plus the cell files of `hit_keys`.
  void add_bytes_read(const store::ResultStore& s,
                      const std::set<std::string>& hit_keys) {
    for (const store::ResultStore::Entry& e : s.entries())
      if (e.path.ends_with(".tape") || hit_keys.count(e.key) > 0)
        store_bytes_read += e.bytes;
  }
};

/// The workload's task, cell by cell on this thread, through the public
/// per-cell functions its sweep engine calls. One span per call.
Rows serial_task(const Config& c, SpanLog& log, Counts& n) {
  const std::vector<core::MachineConfig> machines = machine_points(c.workload);
  const auto& suite = selcache::workloads::all_workloads();
  constexpr std::size_t nv = core::kAllVersions.size();
  core::RunOptions opt = run_options(c);
  // res[point][workload][version]
  std::vector<std::vector<std::array<core::RunResult, nv>>> res(
      machines.size(),
      std::vector<std::array<core::RunResult, nv>>(suite.size()));

  const SpanLog::Scope pass(log, "pass");
  std::optional<store::ResultStore> s;
  tape::TapeCache cache;
  std::set<std::string> hit_keys;
  if (has_store(c.workload)) {
    s.emplace(c.work_dir, store::ResultStore::Options{.read_only = true});
    const SpanLog::Scope span(log, "store.preload_tapes");
    n.tapes_preloaded += s->preload_tapes(cache);
  }
  for (std::size_t wi = 0; wi < suite.size(); ++wi) {
    for (std::size_t vi = 0; vi < nv; ++vi) {
      const auto& w = suite[wi];
      const core::Version v = core::kAllVersions[vi];
      const std::string id = cell_id(w, v);
      switch (c.workload) {
        case Workload::SuiteInterp: {
          const SpanLog::Scope span(log, "core.run_version", id);
          res[0][wi][vi] = core::run_version(w, machines[0], v, opt);
          break;
        }
        case Workload::AxisMemlat: {
          // run_cell_shared_decode's calls: record at the first point,
          // one multi-point replay for the rest.
          opt.batch = tape::kDefaultBatchOps;
          tape::Tape t;
          {
            const SpanLog::Scope span(log, "core.record_tape", id);
            t = core::record_tape(w, machines[0], v, opt, &res[0][wi][vi]);
          }
          const std::vector<core::MachineConfig> rest(machines.begin() + 1,
                                                      machines.end());
          std::vector<core::RunResult> rr;
          {
            const SpanLog::Scope span(log, "core.multi_replay_tape", id);
            rr = core::multi_replay_tape(t, rest, v, opt);
          }
          for (std::size_t p = 1; p < machines.size(); ++p)
            res[p][wi][vi] = std::move(rr[p - 1]);
          break;
        }
        case Workload::SuiteReplayVictim: {
          // run_version's calls: store lookup (a miss), then replay.
          std::optional<store::StoredResult> hit;
          {
            const SpanLog::Scope span(log, "store.load", id);
            hit = s->load(core::store_key(w, machines[0], v, opt));
          }
          if (hit) {
            res[0][wi][vi] = from_stored(*hit);
            break;
          }
          const tape::TapeCache::TapePtr t = cache.find(core::tape_key(w, v, opt));
          require(t != nullptr, "no set-up tape for " + id);
          const SpanLog::Scope span(log, "core.replay_tape", id);
          res[0][wi][vi] = core::replay_tape(*t, machines[0], v, opt);
          ++n.tapes_replayed;
          break;
        }
        case Workload::StoreWarmAxis: {
          for (std::size_t p = 0; p < machines.size(); ++p) {
            const std::string key = core::store_key(w, machines[p], v, opt);
            std::optional<store::StoredResult> hit;
            {
              const SpanLog::Scope span(log, "store.load", id);
              hit = s->load(key);
            }
            require(hit.has_value(), "warm store missed " + key);
            res[p][wi][vi] = from_stored(*hit);
            hit_keys.insert(key);
          }
          break;
        }
      }
    }
  }

  if (s) {
    n.store_hits += s->counters().hits;
    n.store_misses += s->counters().misses;
    n.add_bytes_read(*s, hit_keys);
  }
  Rows rows(machines.size());
  for (std::size_t p = 0; p < machines.size(); ++p)
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
      for (const core::RunResult& r : res[p][wi]) n.add_stats(r.stats);
      rows[p].push_back(core::make_improvement_row(suite[wi], res[p][wi]));
    }
  n.cells = machines.size() * suite.size() * nv;
  return rows;
}

/// Every layer of every (workload, version) cell through its own public
/// call, at the workload's first machine point. Workloads whose task has
/// no store round-trip each cell and tape through a scratch store in
/// work_dir, so the store spans exist on every workload.
void split_layers(const Config& c, SpanLog& log, Counts& n) {
  const core::MachineConfig m = machine_points(c.workload).front();
  const core::RunOptions opt = run_options(c);  // batch 0: streaming replay
  const bool own_store = has_store(c.workload);
  store::ResultStore s(c.work_dir,
                       store::ResultStore::Options{.read_only = own_store});
  if (!own_store) s.clear();
  std::map<std::string, std::string> tape_files;  // tape key -> .tape path
  const auto tape_file = [&](const std::string& key) {
    if (tape_files.count(key) == 0)
      for (const store::ResultStore::Entry& e : s.entries())
        if (e.path.ends_with(".tape")) tape_files[e.key] = e.path;
    require(tape_files.count(key) > 0, "no tape file for " + key);
    return tape_files[key];
  };
  std::set<std::string> hit_keys;

  const SpanLog::Scope root(log, "layers");
  for (const auto& w : selcache::workloads::all_workloads()) {
    for (core::Version v : core::kAllVersions) {
      const SpanLog::Scope cell(log, "cell", cell_id(w, v));
      const selcache::ir::Program base = [&] {
        const SpanLog::Scope span(log, "workloads.build");
        return w.build();
      }();
      const selcache::ir::Program product = [&] {
        const SpanLog::Scope span(log, "transform.prepare");
        return core::prepare_program(base, v, opt.optimize);
      }();
      {
        const SpanLog::Scope span(log, "codegen.interpret");
        selcache::codegen::DataEnv env(product, {.seed = opt.data_seed});
        NullCpu cpu;
        selcache::codegen::BasicTraceEngine<NullCpu> engine(product, env, cpu);
        engine.run();
        n.ops += cpu.ops;
        n.fold ^= cpu.fold;
      }
      const tape::Tape t = [&] {
        const SpanLog::Scope span(log, "tape.record");
        selcache::codegen::DataEnv env(product, {.seed = opt.data_seed});
        tape::TapeBuilder builder;
        RecordCpu cpu{builder};
        selcache::codegen::BasicTraceEngine<RecordCpu> engine(product, env,
                                                              cpu);
        engine.run();
        return builder.take();
      }();
      n.tape_bytes += t.size_bytes();
      n.tape_data_accesses += t.stats.data_accesses();
      {
        const SpanLog::Scope span(log, "tape.decode");
        NullCpu cpu;
        tape::replay_into(t, cpu);
        n.fold ^= cpu.fold;
      }
      AccessCollector collected(m);
      {
        const SpanLog::Scope span(log, "bench.collect");
        tape::replay_into(t, collected);
      }
      n.accesses += collected.stream.size() - collected.toggles;
      {
        const SpanLog::Scope span(log, "memsys.access");
        n.fold ^= drive(m, nullptr, v, collected.stream);
      }
      for (SchemeKind k : {SchemeKind::Bypass, SchemeKind::Victim}) {
        const SpanLog::Scope span(
            log, k == SchemeKind::Bypass ? "hw.bypass" : "hw.victim");
        const std::unique_ptr<memsys::HwScheme> scheme = core::make_scheme(k, m);
        n.fold ^= drive(m, scheme.get(), v, collected.stream);
      }
      collected.stream = {};
      const core::RunResult r = [&] {
        const SpanLog::Scope span(log, "core.replay_tape");
        return core::replay_tape(t, m, v, opt);
      }();
      n.fold ^= r.cycles;

      const std::string tkey = core::tape_key(w, v, opt);
      if (!own_store) {
        const std::string key = core::store_key(w, m, v, opt);
        {
          const SpanLog::Scope span(log, "store.save");
          s.save(key, to_stored(r));
        }
        {
          tape::TapeCache one;
          one.get_or_record(tkey, [&t] { return t; });
          const SpanLog::Scope span(log, "store.persist_tapes");
          s.persist_tapes(one);
        }
        std::optional<store::StoredResult> hit;
        {
          const SpanLog::Scope span(log, "store.load");
          hit = s.load(key);
        }
        require(hit.has_value(), "scratch store missed " + key);
        hit_keys.insert(key);
      }
      const std::string path = tape_file(tkey);
      const tape::Tape loaded = [&] {
        const SpanLog::Scope span(log, "tape.load");
        return tape::load_tape(path);
      }();
      require(loaded == t, "tape on disk differs from a fresh recording: " +
                               cell_id(w, v));
    }
  }
  if (!own_store) {
    {
      tape::TapeCache cache;
      const SpanLog::Scope span(log, "store.preload_tapes");
      n.tapes_preloaded += s.preload_tapes(cache);
    }
    n.store_hits += s.counters().hits;
    n.store_misses += s.counters().misses;
    n.add_bytes_read(s, hit_keys);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall seconds of `n` empty spans on a log that is `enabled` or not.
double empty_spans(std::size_t n, bool enabled) {
  SpanLog log(enabled);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i)
    const SpanLog::Scope span(log, "cell", "Workload/version");
  return seconds_since(t0);
}

}  // namespace

std::string traced_run(const Config& c, const std::string& spans_path,
                       Rows* rows) {
  Counts n;
  SpanLog log(true);
  *rows = serial_task(c, log, n);
  // The untraced parallel pass runs after the serial one, so both sides of
  // core.parallel_eff are timed warm.
  const auto t0 = std::chrono::steady_clock::now();
  run_pass(c);
  const double parallel_s = seconds_since(t0);
  split_layers(c, log, n);
  log.write_jsonl(spans_path);
  // Tracing overhead: traced minus untraced wall of as many spans as this
  // run recorded, with empty bodies. The same difference over two real
  // serial passes is buried in host noise (seconds either way).
  const double overhead_s =
      empty_spans(log.size(), true) - empty_spans(log.size(), false);

  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  const auto f = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9f", v);
    return std::string(buf);
  };
  return "{\"threads\": " + u(c.threads) +
         ", \"parallel_wall_s\": " + f(parallel_s) +
         ", \"trace_overhead_s\": " + f(overhead_s) +
         ", \"cells\": " + u(n.cells) + ", \"ops\": " + u(n.ops) +
         ", \"accesses\": " + u(n.accesses) +
         ", \"tape_bytes\": " + u(n.tape_bytes) +
         ", \"tape_data_accesses\": " + u(n.tape_data_accesses) +
         ", \"l1d_hits\": " + u(n.l1d_hits) +
         ", \"l1d_misses\": " + u(n.l1d_misses) +
         ", \"l2_hits\": " + u(n.l2_hits) +
         ", \"l2_misses\": " + u(n.l2_misses) +
         ", \"mat_touches\": " + u(n.mat_touches) +
         ", \"sldt_notes\": " + u(n.sldt_notes) +
         ", \"victim_hits\": " + u(n.victim_hits) +
         ", \"toggles\": " + u(n.toggles) +
         ", \"store_hits\": " + u(n.store_hits) +
         ", \"store_misses\": " + u(n.store_misses) +
         ", \"store_bytes_read\": " + u(n.store_bytes_read) +
         ", \"tapes_preloaded\": " + u(n.tapes_preloaded) +
         ", \"tapes_replayed\": " + u(n.tapes_replayed) +
         ", \"fold\": " + u(n.fold) + "}";
}

}  // namespace perfbench
