#include "core/runner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>

#include "codegen/trace_engine.h"
#include "fault/injector.h"
#include "store/store.h"
#include "support/fingerprint.h"
#include "support/signal_guard.h"
#include "support/thread_pool.h"
#include "tape/cache.h"
#include "tape/multi_replayer.h"
#include "tape/recording_model.h"
#include "trace/recorder.h"

namespace selcache::core {

namespace {

std::uint64_t l1_accesses(const RunResult& r) {
  return r.stats.get("l1d.hits") + r.stats.get("l1d.misses") +
         r.stats.get("l1i.hits") + r.stats.get("l1i.misses");
}

}  // namespace

ImprovementRow make_row_partial(
    const workloads::WorkloadInfo& w,
    const std::array<std::optional<RunResult>, 5>& results) {
  ImprovementRow row;
  row.benchmark = w.name;
  row.category = w.category;
  row.base_cycles = results[0] ? results[0]->cycles : 0;
  for (std::size_t i = 0; i < kAllVersions.size(); ++i) {
    const Version v = kAllVersions[i];
    if (v != Version::Base)
      row.pct[v] = results[0] && results[i]
                       ? improvement_pct(row.base_cycles, results[i]->cycles)
                       : 0.0;
    if (results[i]) {
      row.accesses += l1_accesses(*results[i]);
      row.stats.merge(results[i]->stats, std::string(version_key(v)) + ".");
    }
  }
  return row;
}

ImprovementRow make_improvement_row(const workloads::WorkloadInfo& w,
                                    const std::array<RunResult, 5>& results) {
  std::array<std::optional<RunResult>, 5> present;
  std::copy(results.begin(), results.end(), present.begin());
  return make_row_partial(w, present);
}

const char* version_key(Version v) {
  switch (v) {
    case Version::Base: return "base";
    case Version::PureHardware: return "purehw";
    case Version::PureSoftware: return "puresw";
    case Version::Combined: return "combined";
    case Version::Selective: return "selective";
  }
  return "?";
}

namespace {

memsys::HierarchyConfig hierarchy_config(const MachineConfig& m,
                                         const RunOptions& opt) {
  memsys::HierarchyConfig hcfg = m.hierarchy;
  hcfg.classify_misses = opt.classify_misses;
  return hcfg;
}

bool share_structure(const MachineConfig& a, const MachineConfig& b);

/// The stream side of a ride: the TLBs and L1I of its hierarchies and its
/// branch predictor. Every version of a ride issues the same loads, stores,
/// I-fetches and branches (markers reach only Selective's controller), and
/// none of these structures sees the scheme, so their state depends on the
/// stream alone: FanOutModel runs them once per op for all of the ride's
/// Simulations, which build none of their own (DESIGN §8).
struct RideStream {
  RideStream(const memsys::HierarchyConfig& h, const cpu::CpuConfig& c)
      : memory(h),
        bpred(c.bimodal_entries),
        ifetch(c.model_ifetch),
        l1i_shift(log2_exact(h.l1i.block_size)) {}

  memsys::StreamSide memory;
  cpu::BimodalPredictor bpred;
  bool ifetch;          ///< the ride's CpuConfig models I-fetch
  unsigned l1i_shift;   ///< log2 of the L1I block size
};

/// All mutable machine state one simulation owns: hierarchy + scheme +
/// controller + timing model, with the optional fault injector and phase
/// recorder attached. Shared by the interpret, ride, record and replay paths so
/// a replayed run reconstructs *exactly* the machine an interpreted run
/// would see (attachment and source-registration order are part of the
/// bit-identical contract — the recorder is attached BEFORE the initial
/// force() so the timeline starts with the synthetic Toggle event, and the
/// stat sources register in hierarchy, cpu, controller, injector order).
///
/// One Simulation prices a group of machines that share_structure(): the
/// hierarchy, scheme and controller are built from group.front() and run
/// once, and the timing model prices every member at its own memory
/// latency. Traced, fault-armed and degrade-armed runs use one-machine
/// groups. A ride twin built to `host` Selective prices the group twice:
/// its own points first, then Selective's (see Shadow). In a ride of
/// several versions every Simulation runs on the ride's one `stream` side
/// (see RideStream); otherwise it owns its own.
struct Simulation {
  memsys::Hierarchy hierarchy;
  std::unique_ptr<memsys::HwScheme> scheme;
  hw::Controller controller;
  std::optional<fault::Injector> injector;
  std::optional<trace::Recorder> rec;
  cpu::TimingModel cpu;
  std::size_t own;  ///< the model's points [0, own) are this version's

  Simulation(const std::vector<MachineConfig>& group, Version v,
             const RunOptions& opt, trace::Recording* trace_out,
             RideStream* stream = nullptr, bool host = false)
      : hierarchy(hierarchy_config(group.front(), opt),
                  stream != nullptr ? &stream->memory : nullptr),
        scheme(v == Version::Base || v == Version::PureSoftware
                   ? nullptr
                   : make_scheme(opt.scheme, group.front())),
        controller(scheme.get()),
        cpu(group.front().cpu, mem_latencies(group, host ? 2 : 1), hierarchy,
            controller, stream != nullptr ? &stream->bpred : nullptr),
        own(group.size()) {
    SELCACHE_CHECK_MSG(trace_out == nullptr || group.size() == 1,
                       "a traced simulation prices one machine");
    for (const MachineConfig& m : group)
      SELCACHE_CHECK_MSG(share_structure(group.front(), m),
                         "simulation group differs beyond memory latency");
    hierarchy.attach_hw(scheme.get());

    // Optional fault campaign: the injector lives on this task's stack like
    // the trace recorder, and attaching it is the only thing that makes any
    // fault hook non-null. Without it this simulation compiles down to the
    // pre-fault-layer machine.
    if (opt.fault.enabled() || opt.watchdog_accesses > 0) {
      injector.emplace(opt.fault, opt.watchdog_accesses);
      hierarchy.set_fault(&*injector);
      if (scheme != nullptr) scheme->set_fault(&*injector);
      controller.set_fault(&*injector);
    }
    if (opt.degrade.armed()) controller.set_degrade_policy(opt.degrade);

    // Optional phase tracing. The recorder lives on this task's stack: a
    // parallel sweep never shares trace state between tasks.
    if (trace_out != nullptr) {
      rec.emplace(*trace_out, opt.trace_epoch);
      rec->register_source(
          [this](StatSet& s) { hierarchy.export_stats(s); });
      hierarchy.set_trace(&*rec);
      if (scheme != nullptr) scheme->set_trace(&*rec);
      controller.set_trace(&*rec);
    }
    controller.force(hw_always_on(v));  // Selective starts OFF; toggles drive
    if (rec) {
      rec->register_source([this](StatSet& s) { cpu.export_stats(s); });
      rec->register_source(
          [this](StatSet& s) { controller.export_stats(s); });
      if (injector)
        rec->register_source(
            [this](StatSet& s) { injector->export_stats(s); });
    }
  }

  /// Selective forked from `twin`, whose machine it rode until now: a copy
  /// of twin's hierarchy, a clone of twin's scheme (or, when twin has none,
  /// `own_scheme`, which no data access has reached, moved in), Selective's
  /// controller history carried onto it, and Selective's points of twin's
  /// model with their markers folded in.
  Simulation(Simulation& twin, std::unique_ptr<memsys::HwScheme>& own_scheme,
             const hw::Controller& history)
      : hierarchy(twin.hierarchy),
        scheme(twin.scheme != nullptr ? twin.scheme->clone()
                                      : std::move(own_scheme)),
        controller(history, scheme.get()),
        cpu(twin.cpu, twin.own, hierarchy, controller),
        own(cpu.points()) {
    hierarchy.attach_hw(scheme.get());
  }

  /// Finish the phase recording (if any) and harvest the run's results,
  /// one per machine of the group, in group order.
  std::vector<RunResult> collect() {
    if (rec) rec->finish();
    return results(0, own, controller, nullptr);
  }

  /// The results at points [first, first + n) of the model, for a version
  /// whose machine is this hierarchy and whose markers `ctl` executed.
  /// `idle` is that version's scheme when the hierarchy carries none: no
  /// data access reached it, so only its counters show.
  std::vector<RunResult> results(std::size_t first, std::size_t n,
                                 const hw::Controller& ctl,
                                 const memsys::HwScheme* idle) const {
    // Everything but the cpu.* counters is structural: the same at every
    // priced point.
    RunResult shared;
    shared.l1_miss_rate = hierarchy.l1_miss_rate();
    shared.l2_miss_rate = hierarchy.l2_miss_rate();
    if (const auto* c = hierarchy.classifier())
      shared.conflict_share = c->conflict_share();
    shared.toggles = ctl.toggles_executed();
    shared.degradations = ctl.degradations();
    hierarchy.export_stats(shared.stats);
    if (idle != nullptr) idle->export_stats(shared.stats);
    ctl.export_stats(shared.stats);
    if (injector) {
      shared.faults_injected = injector->injected();
      injector->export_stats(shared.stats);
    }
    std::vector<RunResult> out(n, shared);
    for (std::size_t i = 0; i < n; ++i) {
      out[i].cycles = cpu.cycles(first + i);
      out[i].instructions = cpu.instructions(first + i);
      cpu.export_stats(out[i].stats, first + i);
    }
    return out;
  }

 private:
  /// The group's memory latencies, `times` over: the model's points.
  static std::vector<Cycle> mem_latencies(
      const std::vector<MachineConfig>& group, std::size_t times) {
    std::vector<Cycle> lats;
    lats.reserve(group.size() * times);
    for (std::size_t t = 0; t < times; ++t)
      for (const MachineConfig& m : group)
        lats.push_back(m.hierarchy.mem.access_latency);
    return lats;
  }
};

/// Selective while its machine is still one of its twins' in a ride
/// (run_ride). Its markers are all that sets its code apart, and the
/// hierarchy ignores a scheme that is off (§4.1), so until a data access
/// finds its scheme in another state than its twin's, Selective's machine
/// is the twin's: it prices as points on the twin's model, with its own
/// controller over a scheme no data access has reached. twins[0] is the
/// ride's scheme-less version (Pure Software, or Base in a copy ride) and
/// twins[1] its always-on one (Combined or Pure Hardware); either may be
/// absent. Before the ride's first data access no version's structure
/// differs (the I-side never reaches the scheme), so Selective may move to
/// whichever twin shares its state then; after it, it forks instead.
struct Shadow {
  std::array<Simulation*, 2> twins;
  Simulation* host;  ///< the twin whose model carries Selective's points
  std::unique_ptr<memsys::HwScheme> scheme;
  hw::Controller controller;
  bool accessed = false;  ///< the ride has made a data access

  Shadow(std::array<Simulation*, 2> ride_twins, Simulation* start,
         const MachineConfig& m, const RunOptions& opt)
      : twins(ride_twins),
        host(start),
        scheme(make_scheme(opt.scheme, m)),
        controller(scheme.get()) {}

  void toggle(bool on, std::int32_t region) {
    controller.toggle(on, region);
    host->cpu.add_marker(host->own);
  }

  /// Before a data access: keep riding a twin whose scheme is in
  /// Selective's state, or return Selective's fork.
  std::unique_ptr<Simulation> settle() {
    const bool on = controller.active();
    if (!accessed && host->controller.active() != on)
      for (Simulation* t : twins)
        if (t != nullptr && t->controller.active() == on) {
          t->cpu.take_points(host->cpu, host->own);
          host = t;
          break;
        }
    accessed = true;
    if (host->controller.active() == on) return nullptr;
    return std::make_unique<Simulation>(*host, scheme, controller);
  }

  /// Selective's results, one per machine of the group, if it never forked.
  std::vector<RunResult> collect() const {
    return host->results(host->own, host->cpu.points() - host->own,
                         controller,
                         host->scheme == nullptr ? scheme.get() : nullptr);
  }
};

/// The six cpu::TimingModel entry points of one interpretation, fanned out
/// to every Simulation of a ride group. The ride's stream side (`stream`)
/// runs once per op, and each Simulation gets its outcome, in a fixed
/// order, through the model's per-Simulation entry points: every load and
/// store the DTLB's charge, every branch the predictor's verdict, and an
/// I-fetch block only when the ITLB or L1I missed, or when the ride is
/// `traced` (its recorders tick once per access, hits included). ON/OFF
/// markers reach only Selective: its model `marked`, or its `shadow` while
/// it has none. For every other member the interpreted code is its own
/// product with the markers removed (ride_groups checks this on the built
/// products). A shadowed Selective settles before the first data access
/// and before the first one after each marker; when it forks, its
/// Simulation lands in `*fork` and joins the fan-out.
class FanOutModel {
 public:
  FanOutModel(RideStream& stream, bool traced,
              std::vector<cpu::TimingModel*> models, cpu::TimingModel* marked,
              Shadow* shadow, std::unique_ptr<Simulation>* fork)
      : stream_(stream),
        traced_(traced),
        models_(std::move(models)),
        marked_(marked),
        shadow_(shadow),
        fork_(fork),
        settle_(shadow != nullptr) {}

  void compute(std::uint64_t n) {
    for (cpu::TimingModel* m : models_) m->compute(n);
  }
  void load(Addr addr, bool dependent = false) {
    if (settle_) settle();
    const Cycle tlb = stream_.memory.translate(addr);
    for (cpu::TimingModel* m : models_)
      m->translated_load(addr, tlb, dependent);
  }
  void store(Addr addr) {
    if (settle_) settle();
    const Cycle tlb = stream_.memory.translate(addr);
    for (cpu::TimingModel* m : models_) m->translated_store(addr, tlb);
  }
  void branch(Addr pc, bool taken) {
    const bool correct = stream_.bpred.predict_and_train(pc, taken);
    for (cpu::TimingModel* m : models_) m->predicted_branch(correct);
  }
  void toggle(bool on, std::int32_t region = -1) {
    if (marked_ != nullptr) {
      marked_->toggle(on, region);
    } else if (shadow_ != nullptr) {
      shadow_->toggle(on, region);
      settle_ = true;
    }
  }
  void touch_code(Addr pc, std::uint32_t n_instr) {
    if (!stream_.ifetch) return;
    // Block by block, so a traced Simulation's epoch snapshot reads the
    // stream side as of its own access.
    cpu::for_each_code_block(pc, n_instr, stream_.l1i_shift, [&](Addr a) {
      const memsys::StreamSide::Fetch f = stream_.memory.fetch(a);
      if (f.hit() && !traced_) return;
      for (cpu::TimingModel* m : models_) m->fetched_block(a, f);
    });
  }

 private:
  void settle() {
    settle_ = false;
    std::unique_ptr<Simulation> forked = shadow_->settle();
    if (forked == nullptr) return;
    *fork_ = std::move(forked);
    marked_ = &(*fork_)->cpu;
    models_.push_back(marked_);
    shadow_ = nullptr;
  }

  RideStream& stream_;
  bool traced_;
  std::vector<cpu::TimingModel*> models_;
  cpu::TimingModel* marked_;
  Shadow* shadow_;
  std::unique_ptr<Simulation>* fork_;
  bool settle_;
};

constexpr auto fnv1a = fnv1a_u64;  // shared fold (support/fingerprint.h)

}  // namespace

/// Hash of every RunOptions field the recorded stream depends on. The
/// machine and scheme are deliberately excluded (the stream is invariant
/// under both: geometry only changes the hierarchy's response, and the
/// scheme never feeds back into address generation); the verification
/// hooks (log / after_stage) observe the pipeline without changing its
/// output, so they are excluded too.
std::uint64_t stream_fingerprint(const RunOptions& opt) {
  const transform::OptimizeOptions& o = opt.optimize;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, opt.data_seed);
  h = fnv1a(h, std::bit_cast<std::uint64_t>(o.threshold));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tiling.tile));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tiling.min_tile));
  h = fnv1a(h, o.tiling.cache_bytes);
  h = fnv1a(h, o.unroll);
  std::uint64_t bits = 0;
  for (bool b : {o.enable_fusion, o.enable_interchange, o.enable_tiling,
                 o.enable_unroll_jam, o.enable_scalar_replacement,
                 o.enable_layout_selection, o.insert_markers,
                 o.eliminate_markers,
                 static_cast<bool>(o.method_predictor)})
    bits = (bits << 1) | (b ? 1 : 0);
  h = fnv1a(h, bits);
  // A method predictor reshapes the marked program, so its configuration
  // fingerprint is part of the stream identity.
  return fnv1a(h, o.method_predictor_fingerprint);
}

namespace {

/// machine_fingerprint, optionally without the main-memory latency.
std::uint64_t fold_machine(const MachineConfig& m, bool with_mem_latency) {
  std::uint64_t h = kFnv1aOffset;
  for (const memsys::CacheConfig* c :
       {&m.hierarchy.l1d, &m.hierarchy.l1i, &m.hierarchy.l2}) {
    h = fnv1a(h, c->size_bytes);
    h = fnv1a(h, c->assoc);
    h = fnv1a(h, c->block_size);
    h = fnv1a(h, c->latency);
  }
  for (const memsys::TlbConfig* t : {&m.hierarchy.dtlb, &m.hierarchy.itlb}) {
    h = fnv1a(h, t->entries);
    h = fnv1a(h, t->assoc);
    h = fnv1a(h, t->page_size);
    h = fnv1a(h, t->miss_penalty);
  }
  if (with_mem_latency) h = fnv1a(h, m.hierarchy.mem.access_latency);
  h = fnv1a(h, m.hierarchy.mem.bus_width);
  h = fnv1a(h, m.cpu.issue_width);
  h = fnv1a(h, m.cpu.ruu_entries);
  h = fnv1a(h, m.cpu.lsq_entries);
  h = fnv1a(h, m.cpu.memory_ports);
  h = fnv1a(h, m.cpu.bimodal_entries);
  h = fnv1a(h, m.cpu.mispredict_penalty);
  h = fnv1a(h, m.cpu.overlap_bandwidth_cycles);
  h = fnv1a(h, m.cpu.toggle_latency);
  h = fnv1a(h, m.cpu.model_ifetch ? 1 : 0);
  return h;
}

}  // namespace

/// Fingerprint of every machine parameter a simulation's outputs depend
/// on. Scheme *configurations* are pure functions of (kind, machine) — see
/// make_scheme — so hashing the kind plus these fields covers them too.
std::uint64_t machine_fingerprint(const MachineConfig& m) {
  return fold_machine(m, /*with_mem_latency=*/true);
}

namespace {

/// Is this run allowed on the tape path? Fault campaigns and watchdogs
/// perturb or truncate the run midstream, and a traced run records its
/// phases as it interprets, so they always interpret. Tapes live only in
/// the caller's opt.tape_cache.
bool tape_eligible(const RunOptions& opt, const trace::Recording* trace_out) {
  SELCACHE_CHECK_MSG(!opt.reuse_tape || opt.tape_cache != nullptr,
                     "reuse_tape needs RunOptions::tape_cache");
  return opt.reuse_tape && trace_out == nullptr && !opt.fault.enabled() &&
         opt.watchdog_accesses == 0;
}

/// Is this run allowed on the persistent-store path? Stored results carry
/// no fault/degradation counters and no trace recording, so any of those
/// features forces a live simulation.
bool store_eligible(const RunOptions& opt, bool traced) {
  return opt.result_store != nullptr && !traced &&
         !opt.fault.enabled() && opt.watchdog_accesses == 0 &&
         !opt.degrade.armed();
}

/// May one structural pass serve both machines? Only when they differ in
/// nothing but main-memory latency. No cache, TLB, MAT/SLDT, bypass-buffer
/// or victim state depends on it — MainMemory::fetch_latency is the only
/// place it enters, and make_scheme never reads it — so the hierarchy
/// evolves identically and only the pricing differs. Compared as the
/// store's machine identity with the latency left out.
bool share_structure(const MachineConfig& a, const MachineConfig& b) {
  return fold_machine(a, /*with_mem_latency=*/false) ==
         fold_machine(b, /*with_mem_latency=*/false);
}

/// Can this run's points share Simulations at all? Fault campaigns,
/// watchdogs and degrade policies keep one point per Simulation.
bool pricing_shareable(const RunOptions& opt) {
  return !opt.fault.enabled() && opt.watchdog_accesses == 0 &&
         !opt.degrade.armed();
}

/// Points 0..n-1 in groups: each point joins the first group whose first
/// point `joins` it, else starts a group of its own.
template <typename Joins>
std::vector<std::vector<std::size_t>> group_points(std::size_t n,
                                                   const Joins& joins) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t p = 0; p < n; ++p) {
    const auto g = std::find_if(
        groups.begin(), groups.end(),
        [&](const std::vector<std::size_t>& g) { return joins(g.front(), p); });
    if (g != groups.end()) {
      g->push_back(p);
    } else {
      groups.push_back({p});
    }
  }
  return groups;
}

std::vector<MachineConfig> pick(const std::vector<MachineConfig>& machines,
                                const std::vector<std::size_t>& idx) {
  std::vector<MachineConfig> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) out.push_back(machines[i]);
  return out;
}

store::StoredResult to_stored(const RunResult& r) {
  // faults_injected / degradations are structurally 0 on the store path
  // (store_eligible excludes every run that could set them).
  return {.cycles = r.cycles,
          .instructions = r.instructions,
          .l1_miss_rate = r.l1_miss_rate,
          .l2_miss_rate = r.l2_miss_rate,
          .conflict_share = r.conflict_share,
          .toggles = r.toggles,
          .stats = r.stats};
}

}  // namespace

RunResult from_stored(const store::StoredResult& s) {
  RunResult r;
  r.cycles = s.cycles;
  r.instructions = s.instructions;
  r.l1_miss_rate = s.l1_miss_rate;
  r.l2_miss_rate = s.l2_miss_rate;
  r.conflict_share = s.conflict_share;
  r.toggles = s.toggles;
  r.stats = s.stats;
  return r;
}

std::string tape_key(const workloads::WorkloadInfo& w, Version v,
                     const RunOptions& opt) {
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(stream_fingerprint(opt)));
  return w.name + "/" + version_key(v) + "/" + fp;
}

std::string store_key(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt) {
  char fp[40];
  std::snprintf(fp, sizeof(fp), "%016llx/%016llx",
                static_cast<unsigned long long>(machine_fingerprint(m)),
                static_cast<unsigned long long>(stream_fingerprint(opt)));
  // Readable prefix (workload/version/scheme) + machine and stream
  // fingerprints + the 3C flag (it adds classifier counters to the
  // StatSet) + the store format version, which invalidates everything at
  // once when the encoding or this derivation changes.
  return w.name + "/" + version_key(v) + "/" + hw::to_string(opt.scheme) +
         "/" + fp + (opt.classify_misses ? "/3c" : "/-") + "/s" +
         std::to_string(store::kStoreFormatVersion);
}

namespace {

/// Interpret version v's code product once over a group of machines that
/// share_structure(): one structural pass, priced at every member. With a
/// `builder` the RecordingTimingModel shim tees every timing-model call into
/// the tape while the real model simulates, so a recording run's results
/// are ordinary simulation results.
std::vector<RunResult> simulate_group(const ir::Program& product,
                                      const std::vector<MachineConfig>& group,
                                      Version v, const RunOptions& opt,
                                      trace::Recording* trace_out,
                                      tape::TapeBuilder* builder) {
  SELCACHE_CHECK_MSG(builder == nullptr || (!opt.fault.enabled() &&
                                            opt.watchdog_accesses == 0),
                     "cannot record a tape under a fault campaign");
  Simulation sim(group, v, opt, trace_out);
  codegen::DataEnv env(product, {.seed = opt.data_seed});
  if (builder != nullptr) {
    tape::RecordingTimingModel shim(sim.cpu, *builder);
    codegen::BasicTraceEngine<tape::RecordingTimingModel>(product, env, shim)
        .run();
  } else {
    codegen::TraceEngine(product, env, sim.cpu).run();
  }
  // Always collect: it finishes the phase recording too.
  return sim.collect();
}

}  // namespace

tape::Tape record_tape(const workloads::WorkloadInfo& w,
                       const MachineConfig& m, Version v,
                       const RunOptions& opt, RunResult* result) {
  tape::TapeBuilder builder;
  std::vector<RunResult> r =
      simulate_group(prepare_program(w.build(), v, opt.optimize), {m}, v,
                     opt, /*trace_out=*/nullptr, &builder);
  if (result != nullptr) *result = std::move(r.front());
  return builder.take();
}

RunResult replay_tape(const tape::Tape& t, const MachineConfig& m, Version v,
                      const RunOptions& opt) {
  Simulation sim({m}, v, opt, /*trace_out=*/nullptr);
  tape::replay_into(t, sim.cpu);
  return std::move(sim.collect().front());
}

std::vector<RunResult> multi_replay_tape(
    const tape::Tape& t, const std::vector<MachineConfig>& machines, Version v,
    const RunOptions& opt) {
  // Points that share_structure() ride one Simulation, priced at each of
  // their latencies; every other point gets its own.
  const std::vector<std::vector<std::size_t>> groups =
      group_points(machines.size(), [&](std::size_t a, std::size_t b) {
        return pricing_shareable(opt) &&
               share_structure(machines[a], machines[b]);
      });
  std::vector<std::unique_ptr<Simulation>> sims;
  sims.reserve(groups.size());
  std::vector<cpu::TimingModel*> sinks;
  sinks.reserve(groups.size());
  for (const std::vector<std::size_t>& g : groups) {
    sims.push_back(std::make_unique<Simulation>(pick(machines, g), v, opt,
                                                /*trace_out=*/nullptr));
    sinks.push_back(&sims.back()->cpu);
  }
  tape::multi_replay(t, sinks, opt.batch);
  std::vector<RunResult> out(machines.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    std::vector<RunResult> rs = sims[gi]->collect();
    for (std::size_t k = 0; k < groups[gi].size(); ++k)
      out[groups[gi][k]] = std::move(rs[k]);
  }
  return out;
}

RunResult run_version(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt,
                      trace::Recording* trace_out) {
  // Persistent-store fast path: a hit reconstructs the whole RunResult
  // from disk and skips simulation entirely (including the tape path — a
  // stored result is strictly cheaper than a replay). A miss falls through
  // to whichever execution path applies and persists its result.
  const bool taped = tape_eligible(opt, trace_out);
  const bool stored = store_eligible(opt, trace_out != nullptr);
  std::string skey;
  if (stored) {
    skey = store_key(w, m, v, opt);
    if (std::optional<store::StoredResult> hit = opt.result_store->load(skey))
      return from_stored(*hit);
  }

  RunResult result = [&]() -> RunResult {
    if (taped) {
      // First run for this key records (and its results are used directly —
      // the recording run IS the interpreted run); every later run replays.
      std::optional<RunResult> recorded;
      const tape::TapeCache::TapePtr t =
          opt.tape_cache->get_or_record(tape_key(w, v, opt), [&] {
            RunResult r;
            tape::Tape fresh = record_tape(w, m, v, opt, &r);
            recorded = std::move(r);
            return fresh;
          });
      if (recorded) return std::move(*recorded);
      return replay_tape(*t, m, v, opt);
    }

    return std::move(
        simulate_group(prepare_program(w.build(), v, opt.optimize), {m}, v,
                       opt, trace_out, /*builder=*/nullptr)
            .front());
  }();

  if (stored) opt.result_store->save(skey, to_stored(result));
  return result;
}

namespace {

/// The code product a version runs, as an index into (original, optimized,
/// marked): kAllVersions lists the versions in pairs of that order (§4.4).
constexpr std::size_t product_of(std::size_t vi) { return vi / 2; }

constexpr std::size_t index_of(Version v) {
  return static_cast<std::size_t>(
      std::find(kAllVersions.begin(), kAllVersions.end(), v) -
      kAllVersions.begin());
}

}  // namespace

RideGroups ride_groups(const ir::Program& original,
                       const ir::Program& optimized,
                       const ir::Program& marked) {
  RideGroups g;
  g.copies = ir::same_code(original, optimized);
  const bool marked_rides =
      ir::same_code(optimized, marked, /*skip_markers_of_b=*/true);
  // code[product_of(vi)]: the product version vi's simulation interprets.
  // Equal products merge into the later one, so a ride runs the product of
  // its last version.
  std::array<std::size_t, 3> code = {0, marked_rides ? 2u : 1u, 2};
  if (g.copies && marked_rides) code[0] = 2;
  for (std::size_t c = 0; c < code.size(); ++c) {
    std::vector<Version> ride;
    for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi) {
      const bool copied = g.copies && product_of(vi) == 1;
      if (!copied && code[product_of(vi)] == c)
        ride.push_back(kAllVersions[vi]);
    }
    if (!ride.empty()) g.rides.push_back(std::move(ride));
  }
  return g;
}

namespace {

/// One unit of a ride sweep: one interpretation of `code` driving one
/// Simulation per version in `sims` (kAllVersions indices, ascending), each
/// pricing every point of structural group `group`.
struct Ride {
  std::size_t wi = 0;
  std::size_t group = 0;
  std::shared_ptr<const ir::Program> code{};
  std::vector<std::size_t> sims{};
  std::uint64_t refs = 0;  ///< code->dynamic_ref_count()
};

/// The index into `sims` (a ride's kAllVersions indices, ascending) of the
/// twin Selective starts on: its scheme-less one when the ride has one
/// (Selective starts OFF), else its always-on one. SIZE_MAX when the ride
/// has no Selective or no twin.
std::size_t start_host(const std::vector<std::size_t>& sims) {
  constexpr std::size_t sel = index_of(Version::Selective);
  if (sims.size() < 2 || sims.back() != sel) return SIZE_MAX;
  for (std::size_t k = 0; k + 1 < sims.size(); ++k)
    if (!hw_always_on(kAllVersions[sims[k]])) return k;
  return 0;
}

/// Does ride `r` carry a Selective that holds its start host's machine at
/// every data access, and so never forks in run_ride? Before interpreting,
/// the plan can tell only this case: the ride is untraced (a traced ride
/// gives Selective a Simulation of its own from the start), its code runs
/// no marker, so Selective's scheme stays OFF, and its start host is
/// scheme-less. A Selective that runs markers may fork.
bool never_forks(const Ride& r, bool traced) {
  const std::size_t host = start_host(r.sims);
  if (traced || host == SIZE_MAX || hw_always_on(kAllVersions[r.sims[host]]))
    return false;
  bool marker = false;
  r.code->visit([&](const ir::Node& n) {
    marker = marker || n.kind == ir::NodeKind::Toggle;
  });
  return !marker;
}

/// In structural group `group`, cell `copy` takes cell `source`'s results.
struct Copy {
  std::size_t group = 0;
  std::size_t copy = 0;
  std::size_t source = 0;
};

/// A ride sweep's units in (group, workload, first version) order, and its
/// copies; cell i is (workload i / 5, version i % 5).
struct RidePlan {
  std::vector<Ride> rides{};
  std::vector<Copy> copies{};
};

/// Plan one ride pass per structural group g over the cells wanted[g] marks
/// (the rest are store hits). Each workload with such a cell builds its
/// three products once (a fraction of a millisecond each) and groups the
/// cells by ride_groups. Then the critical-path rule: a ride whose
/// simulated references exceed 1/threads of the whole sweep's total would
/// outlast the rest of the sweep, so its versions become rides of one,
/// each on its own product, except that a Selective that never forks
/// (never_forks) counts as no simulation and stays on its start host's
/// ride. `traced` plans a traced sweep, where Selective always simulates.
RidePlan plan_rides(std::span<const workloads::WorkloadInfo> suite,
                    const std::vector<std::vector<bool>>& wanted,
                    const transform::OptimizeOptions& optimize,
                    unsigned threads, bool traced) {
  constexpr std::size_t nv = kAllVersions.size();
  using Products = std::array<std::shared_ptr<const ir::Program>, 3>;
  std::vector<Products> products(suite.size());
  std::vector<RideGroups> rides_of(suite.size());
  RidePlan grouped;
  for (std::size_t g = 0; g < wanted.size(); ++g) {
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
      const auto want = [&](std::size_t vi) { return wanted[g][wi * nv + vi]; };
      bool any = false;
      for (std::size_t vi = 0; vi < nv; ++vi) any = any || want(vi);
      if (!any) continue;
      Products& p = products[wi];
      if (p[0] == nullptr) {
        const ir::Program base = suite[wi].build();
        for (std::size_t k = 0; k < p.size(); ++k)
          p[k] = std::make_shared<const ir::Program>(
              prepare_program(base, kAllVersions[2 * k], optimize));
        rides_of[wi] = ride_groups(*p[0], *p[1], *p[2]);
      }
      const RideGroups& rg = rides_of[wi];
      for (const std::vector<Version>& versions : rg.rides) {
        Ride r{.wi = wi, .group = g};
        for (Version v : versions)
          if (want(index_of(v))) r.sims.push_back(index_of(v));
        if (r.sims.empty()) continue;
        // The products of a ride's versions differ at most in Selective's
        // markers, so the last one serves every version.
        r.code = p[product_of(r.sims.back())];
        r.refs = r.code->dynamic_ref_count();
        grouped.rides.push_back(std::move(r));
      }
      for (std::size_t vi = 0; rg.copies && vi < nv; ++vi)
        if (product_of(vi) == 1 && want(vi))
          grouped.copies.push_back(
              {.group = g, .copy = wi * nv + vi, .source = wi * nv + vi - 2});
    }
  }

  // Each ride's simulations; a Selective that never forks has none.
  std::vector<std::size_t> simulated;
  std::uint64_t total = 0;
  for (const Ride& r : grouped.rides) {
    simulated.push_back(r.sims.size() - (never_forks(r, traced) ? 1 : 0));
    total += r.refs * simulated.back();
  }
  RidePlan out{.copies = std::move(grouped.copies)};
  for (std::size_t k = 0; k < grouped.rides.size(); ++k) {
    Ride& r = grouped.rides[k];
    if (threads <= 1 || simulated[k] == 1 ||
        r.refs * simulated[k] * threads <= total) {
      out.rides.push_back(std::move(r));
      continue;
    }
    // Selective is last in r.sims; one that never forks stays on its
    // start host's ride.
    const std::size_t host =
        simulated[k] < r.sims.size() ? r.sims[start_host(r.sims)] : SIZE_MAX;
    for (std::size_t vi : r.sims) {
      if (host != SIZE_MAX && vi == r.sims.back()) continue;
      Ride one{.wi = r.wi, .group = r.group, .sims = {vi}};
      if (vi == host) one.sims.push_back(r.sims.back());
      one.code = products[r.wi][product_of(one.sims.back())];
      out.rides.push_back(std::move(one));
    }
  }
  return out;
}

/// Interpret r.code once, driving one Simulation per version of the ride,
/// each pricing every machine of `group`; returns each version's results,
/// in r.sims order. A ride of one runs the plain engine on the version's
/// own product. The Simulations of a larger ride share its one stream side
/// (RideStream). Selective rides a twin's Simulation as a Shadow while it
/// has one and forks a Simulation of its own where its machine leaves the
/// twin's. With `traces` (one-machine groups only), the Simulation of
/// version vi records into its cell's entry, (*traces)[r.wi * 5 + vi]:
/// there Selective keeps its own Simulation from the start, whose
/// recording carries its toggle events.
std::vector<std::vector<RunResult>> run_ride(
    const Ride& r, const std::vector<MachineConfig>& group,
    const RunOptions& opt, std::vector<trace::Recording>* traces) {
  const auto trace_of = [&](std::size_t vi) -> trace::Recording* {
    return traces != nullptr ? &(*traces)[r.wi * kAllVersions.size() + vi]
                             : nullptr;
  };
  if (r.sims.size() == 1)
    return {simulate_group(*r.code, group, kAllVersions[r.sims.front()], opt,
                           trace_of(r.sims.front()), /*builder=*/nullptr)};
  // Indices into r.sims: Selective's, and its scheme-less and always-on
  // twins'.
  constexpr std::size_t none = SIZE_MAX;
  std::size_t sel = none;
  std::array<std::size_t, 2> twin = {none, none};
  for (std::size_t k = 0; k < r.sims.size(); ++k) {
    const Version v = kAllVersions[r.sims[k]];
    if (v == Version::Selective) {
      sel = k;
    } else {
      twin[hw_always_on(v) ? 1 : 0] = k;
    }
  }
  const bool shadowed = sel != none && traces == nullptr;
  const std::size_t host = start_host(r.sims);
  RideStream stream(hierarchy_config(group.front(), opt), group.front().cpu);
  std::vector<std::unique_ptr<Simulation>> sims(r.sims.size());
  std::vector<cpu::TimingModel*> models;
  for (std::size_t k = 0; k < r.sims.size(); ++k) {
    if (shadowed && k == sel) continue;
    sims[k] = std::make_unique<Simulation>(group, kAllVersions[r.sims[k]], opt,
                                           trace_of(r.sims[k]), &stream,
                                           shadowed && k == host);
    models.push_back(&sims[k]->cpu);
  }
  std::optional<Shadow> shadow;
  if (shadowed)
    shadow.emplace(std::array<Simulation*, 2>{
                       twin[0] != none ? sims[twin[0]].get() : nullptr,
                       twin[1] != none ? sims[twin[1]].get() : nullptr},
                   sims[host].get(), group.front(), opt);
  codegen::DataEnv env(*r.code, {.seed = opt.data_seed});
  FanOutModel fan(stream, traces != nullptr, std::move(models),
                  sel != none && !shadowed ? &sims[sel]->cpu : nullptr,
                  shadow ? &*shadow : nullptr,
                  sel != none ? &sims[sel] : nullptr);
  codegen::BasicTraceEngine<FanOutModel>(*r.code, env, fan).run();
  std::vector<std::vector<RunResult>> out;
  out.reserve(sims.size());
  for (const std::unique_ptr<Simulation>& sim : sims)
    out.push_back(sim != nullptr ? sim->collect() : shadow->collect());
  return out;
}

/// The one unit loop behind sweep_axis and run_units. cells[i * np + p]
/// is cell i = (workload i / 5, version i % 5) at point p. Simulates every
/// (cell, point) that `missed` marks, by one ride pass per structural
/// group, and settles each into `cells` as its unit finishes: kept, saved
/// to opt.result_store (if attached; the store is never read here) and
/// reported to hooks.saved. A cell is simulated in a group when any of the
/// group's points missed. Copies are settled last, from their sources'
/// results, which the caller supplies for cells it does not mark.
///
/// With `traces` (one machine only; nothing is saved), each simulated cell
/// records its phase trace into (*traces)[cell], and a copy takes its
/// source's recording with its results.
///
/// Without hooks.start a unit starts only while no signal is noted, and a
/// noted signal makes the sweep throw support::RunSuspended; without
/// hooks.failed a unit's exception propagates.
void run_rides(std::span<const workloads::WorkloadInfo> suite,
               const std::vector<MachineConfig>& machines,
               const RunOptions& opt, unsigned threads,
               const std::vector<bool>& missed,
               std::vector<std::optional<RunResult>>& cells,
               std::vector<trace::Recording>* traces, const UnitHooks& hooks) {
  constexpr std::size_t nv = kAllVersions.size();
  const std::size_t n = suite.size() * nv;
  const std::size_t np = machines.size();
  SELCACHE_CHECK_MSG(traces == nullptr || np == 1,
                     "a traced sweep runs one machine");
  const bool stored = store_eligible(opt, traces != nullptr);
  const std::vector<std::vector<std::size_t>> groups =
      group_points(np, [&](std::size_t a, std::size_t b) {
        return share_structure(machines[a], machines[b]);
      });
  std::vector<std::vector<bool>> wanted(groups.size(),
                                        std::vector<bool>(n, false));
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t p : groups[g])
        if (missed[i * np + p]) wanted[g][i] = true;
  const RidePlan plan =
      plan_rides(suite, wanted, opt.optimize, threads, traces != nullptr);

  // Cell i's results at the points of group g, settled where it missed.
  const auto settle = [&](std::size_t i, std::size_t g,
                          std::vector<RunResult> rs) {
    for (std::size_t k = 0; k < rs.size(); ++k) {
      const std::size_t p = groups[g][k];
      if (!missed[i * np + p]) continue;
      const RunResult& r = *(cells[i * np + p] = std::move(rs[k]));
      if (stored)
        opt.result_store->save(
            store_key(suite[i / nv], machines[p], kAllVersions[i % nv], opt),
            to_stored(r));
      if (hooks.saved) hooks.saved(i, r);
    }
  };
  support::run_cells(plan.rides.size(), threads, [&](std::size_t u) {
    const Ride& r = plan.rides[u];
    std::vector<std::size_t> ids;
    for (std::size_t vi : r.sims) ids.push_back(r.wi * nv + vi);
    if (hooks.start ? !hooks.start(ids)
                    : support::SignalGuard::stop_requested())
      return;
    std::vector<std::vector<RunResult>> rs;
    try {
      rs = run_ride(r, pick(machines, groups[r.group]), opt, traces);
    } catch (const std::exception& e) {
      if (!hooks.failed) throw;
      for (const Copy& c : plan.copies)
        if (c.group == r.group &&
            std::find(ids.begin(), ids.end(), c.source) != ids.end())
          ids.push_back(c.copy);
      hooks.failed(ids, e.what());
      return;
    }
    for (std::size_t k = 0; k < rs.size(); ++k)
      settle(ids[k], r.group, std::move(rs[k]));
  });
  if (!hooks.start && support::SignalGuard::stop_requested())
    throw support::RunSuspended("sweep stopped by a signal");
  for (const Copy& c : plan.copies) {
    std::vector<RunResult> rs;
    for (std::size_t p : groups[c.group])
      if (const std::optional<RunResult>& src = cells[c.source * np + p])
        rs.push_back(*src);
    if (rs.size() == groups[c.group].size()) {
      if (traces != nullptr) (*traces)[c.copy] = (*traces)[c.source];
      settle(c.copy, c.group, std::move(rs));
    } else if (!wanted[c.group][c.source] && hooks.failed) {
      hooks.failed({c.copy}, "its source cell has no result");
    }
    // Otherwise the source's unit was skipped (the copy stays unsettled) or
    // failed (and reported the copy with it).
  }
}

/// rows[point] from cells[cell * np + point], in fixed (workload, version)
/// order; a missing cell renders as make_row_partial renders it.
std::vector<std::vector<ImprovementRow>> axis_rows(
    std::span<const workloads::WorkloadInfo> suite,
    std::vector<std::optional<RunResult>> cells, std::size_t np) {
  constexpr std::size_t nv = kAllVersions.size();
  std::vector<std::vector<ImprovementRow>> rows(np);
  for (std::size_t p = 0; p < np; ++p) {
    rows[p].reserve(suite.size());
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
      std::array<std::optional<RunResult>, nv> results;
      for (std::size_t vi = 0; vi < nv; ++vi)
        results[vi] = std::move(cells[(wi * nv + vi) * np + p]);
      rows[p].push_back(make_row_partial(suite[wi], results));
    }
  }
  return rows;
}

/// A plain sweep's cells at every point of `machines`, laid out as
/// run_rides lays them out, by ride units: the store (if attached) serves
/// each (cell, point) it holds, and run_rides simulates the rest. With
/// `traces` (one machine only) every cell is simulated and recorded there,
/// and the store is neither read nor written.
std::vector<std::optional<RunResult>> ride_axis(
    std::span<const workloads::WorkloadInfo> suite,
    const std::vector<MachineConfig>& machines, const RunOptions& opt,
    unsigned threads, std::vector<trace::Recording>* traces) {
  constexpr std::size_t nv = kAllVersions.size();
  const std::size_t np = machines.size();
  std::vector<std::optional<RunResult>> cells(suite.size() * nv * np);
  std::vector<bool> missed(cells.size(), true);
  if (store_eligible(opt, traces != nullptr)) {
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const std::size_t i = k / np;
      if (std::optional<store::StoredResult> hit = opt.result_store->load(
              store_key(suite[i / nv], machines[k % np], kAllVersions[i % nv],
                        opt))) {
        cells[k] = from_stored(*hit);
        missed[k] = false;
      }
    }
  }
  run_rides(suite, machines, opt, threads, missed, cells, traces, {});
  return cells;
}

/// May a sweep's cells ride shared interpretations? Only where each would
/// otherwise run by plain interpretation: no tape, and no fault, watchdog or
/// degrade campaign. Guarded-retry sweeps are ruled out by their caller.
bool rides_allowed(const RunOptions& opt) {
  return !opt.reuse_tape && pricing_shareable(opt);
}

}  // namespace

SweepPlan plan_sweep(std::span<const workloads::WorkloadInfo> suite,
                     const RunOptions& opt, const ParallelSweepOptions& par) {
  const std::size_t n = suite.size() * kAllVersions.size();
  if (!rides_allowed(opt)) return {.interpretations = n, .simulations = n};
  const RidePlan plan = plan_rides(suite, {std::vector<bool>(n, true)},
                                   opt.optimize, par.num_threads,
                                   /*traced=*/false);
  SweepPlan out{.interpretations = plan.rides.size(),
                .copies = plan.copies.size()};
  for (const Ride& r : plan.rides) out.simulations += r.sims.size();
  return out;
}

namespace {

/// One (workload, version) cell of a per-cell sweep: its result (nullopt
/// when every attempt failed) and its outcome-ledger entry.
struct Cell {
  std::optional<RunResult> result;
  fault::CellOutcome outcome;
};

/// Run one cell, recording its phase trace into `trace_out` when non-null.
/// Plain (no max_retries): one run_version call, whose exception
/// propagates. Guarded: catches everything a simulation can throw —
/// injected crashes, watchdog kills, internal check failures — and retries
/// up to *max_retries times. Each attempt reseeds the injector
/// deterministically and records into a fresh Recording, so a failed
/// attempt leaves no partial trace behind.
Cell run_cell(const workloads::WorkloadInfo& w, const MachineConfig& m,
              std::size_t vi, const RunOptions& base_opt,
              std::optional<std::uint32_t> max_retries,
              trace::Recording* trace_out) {
  const Version v = kAllVersions[vi];
  Cell cell;
  cell.outcome.workload = w.name;
  cell.outcome.version = version_key(v);
  if (!max_retries) {
    cell.result = run_version(w, m, v, base_opt, trace_out);
    return cell;
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    RunOptions opt = base_opt;
    opt.fault.seed = fault::task_seed(base_opt.fault.seed, w.name,
                                      static_cast<std::uint32_t>(vi), attempt);
    cell.outcome.fault_seed = opt.fault.seed;
    cell.outcome.attempts = attempt + 1;
    trace::Recording rec;
    try {
      RunResult r =
          run_version(w, m, v, opt, trace_out != nullptr ? &rec : nullptr);
      cell.outcome.status = r.degradations > 0
                                ? fault::CellOutcome::Status::Degraded
                                : fault::CellOutcome::Status::Ok;
      cell.outcome.faults_injected = r.faults_injected;
      cell.outcome.degradations = r.degradations;
      cell.outcome.error.clear();
      cell.result = std::move(r);
      if (trace_out != nullptr) *trace_out = std::move(rec);
      return cell;
    } catch (const std::exception& e) {
      cell.outcome.error = e.what();
    } catch (...) {
      cell.outcome.error = "unknown exception";
    }
    cell.outcome.status = fault::CellOutcome::Status::Failed;
    if (attempt >= *max_retries) return cell;
  }
}

/// The one sweep loop behind improvements_for, sweep_suite and
/// sweep_resilient. A plain sweep whose options allow rides, traced or
/// not, runs by ride groups (ride_axis at one point) and leaves the ledger
/// empty. A guarded sweep, or one whose options rule rides out, runs every
/// (workload, version) cell on its own on the shared executor. Either way
/// rows and trace captures are assembled here, in fixed (workload,
/// version) order, so the result is bit-identical at any thread count.
ResilientSweep sweep_cells(std::span<const workloads::WorkloadInfo> suite,
                           const MachineConfig& m, const RunOptions& opt,
                           const ParallelSweepOptions& par,
                           std::optional<std::uint32_t> max_retries,
                           std::vector<TraceCapture>* traces) {
  constexpr std::size_t nv = kAllVersions.size();
  const std::size_t n = suite.size() * nv;
  std::vector<trace::Recording> recordings(traces != nullptr ? n : 0);
  ResilientSweep out;
  std::vector<std::optional<RunResult>> results;
  if (!max_retries && rides_allowed(opt)) {
    results = ride_axis(suite, {m}, opt, par.num_threads,
                        traces != nullptr ? &recordings : nullptr);
  } else {
    std::vector<Cell> cells(n);
    support::run_cells(n, par.num_threads, [&](std::size_t i) {
      cells[i] = run_cell(suite[i / nv], m, i % nv, opt, max_retries,
                          traces != nullptr ? &recordings[i] : nullptr);
    });
    out.report.cells.reserve(n);
    for (Cell& c : cells) {
      results.push_back(std::move(c.result));
      out.report.cells.push_back(std::move(c.outcome));
    }
  }
  out.rows = std::move(axis_rows(suite, std::move(results), 1).front());
  for (std::size_t i = 0; i < recordings.size(); ++i)
    traces->push_back(
        {suite[i / nv].name, kAllVersions[i % nv], std::move(recordings[i])});
  return out;
}

}  // namespace

ImprovementRow improvements_for(const workloads::WorkloadInfo& w,
                                const MachineConfig& m, const RunOptions& opt,
                                const ParallelSweepOptions& par,
                                std::vector<TraceCapture>* traces) {
  return std::move(
      sweep_cells({&w, 1}, m, opt, par, std::nullopt, traces).rows.front());
}

std::vector<ImprovementRow> sweep_suite(const MachineConfig& m,
                                        const RunOptions& opt,
                                        const ParallelSweepOptions& par,
                                        std::vector<TraceCapture>* traces) {
  return sweep_cells(workloads::all_workloads(), m, opt, par, std::nullopt,
                     traces)
      .rows;
}

std::vector<std::vector<ImprovementRow>> sweep_axis(
    const std::vector<MachineConfig>& machines, const RunOptions& opt,
    const ParallelSweepOptions& par,
    std::span<const workloads::WorkloadInfo> suite) {
  SELCACHE_CHECK_MSG(rides_allowed(opt), "sweep_axis: options rule rides out");
  return axis_rows(suite,
                   ride_axis(suite, machines, opt, par.num_threads, nullptr),
                   machines.size());
}

void run_units(std::span<const workloads::WorkloadInfo> suite,
               const MachineConfig& m, const RunOptions& opt,
               const ParallelSweepOptions& par, const std::vector<bool>& todo,
               std::vector<std::optional<RunResult>>& cells,
               const UnitHooks& hooks) {
  SELCACHE_CHECK_MSG(rides_allowed(opt), "run_units: options rule rides out");
  SELCACHE_CHECK_MSG(todo.size() == suite.size() * kAllVersions.size() &&
                         cells.size() == todo.size(),
                     "run_units: one todo flag and one cell per version");
  run_rides(suite, {m}, opt, par.num_threads, todo, cells, nullptr, hooks);
}

ResilientSweep sweep_resilient(
    std::span<const workloads::WorkloadInfo> workloads, const MachineConfig& m,
    const RunOptions& opt, const ParallelSweepOptions& par,
    std::uint32_t max_retries, std::vector<TraceCapture>* traces) {
  return sweep_cells(workloads, m, opt, par, max_retries, traces);
}

namespace {

/// One (workload, version) cell of a shared-decode axis sweep: results for
/// every machine point. Store hits are served per point. The cell's product
/// is built once and interpreted once per structural group of the pending
/// points (every pending point that share_structure()s with the group's
/// first), exactly the simulation run_version would run at each. The first
/// group's run records the cell's tape only when a writable store lets the
/// caller keep it (ResultStore::persist_tapes) and the cache lacks it.
/// Fresh results are persisted under the same store keys run_version would
/// use.
void run_cell_shared_decode(const workloads::WorkloadInfo& w, Version v,
                            const std::vector<MachineConfig>& machines,
                            const RunOptions& opt,
                            std::vector<RunResult>& out) {
  const std::size_t np = machines.size();
  out.resize(np);
  const bool stored = store_eligible(opt, /*traced=*/false);
  std::vector<std::string> skeys(np);
  std::vector<std::size_t> pending;
  pending.reserve(np);
  for (std::size_t pi = 0; pi < np; ++pi) {
    if (stored) {
      skeys[pi] = store_key(w, machines[pi], v, opt);
      if (std::optional<store::StoredResult> hit =
              opt.result_store->load(skeys[pi])) {
        out[pi] = from_stored(*hit);
        continue;
      }
    }
    pending.push_back(pi);
  }
  if (pending.empty()) return;

  const ir::Program product = prepare_program(w.build(), v, opt.optimize);
  const std::string key = tape_key(w, v, opt);
  // Within one sweep each tape key belongs to this one cell, so find()
  // cannot miss a tape another task is still recording.
  const bool record = stored && !opt.result_store->read_only() &&
                      opt.tape_cache->find(key) == nullptr;
  tape::TapeBuilder builder;
  const std::vector<std::vector<std::size_t>> groups =
      group_points(pending.size(), [&](std::size_t a, std::size_t b) {
        return share_structure(machines[pending[a]], machines[pending[b]]);
      });
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::size_t> points;
    for (std::size_t k : groups[g]) points.push_back(pending[k]);
    std::vector<RunResult> rs =
        simulate_group(product, pick(machines, points), v, opt,
                       /*trace_out=*/nullptr,
                       record && g == 0 ? &builder : nullptr);
    for (std::size_t i = 0; i < points.size(); ++i)
      out[points[i]] = std::move(rs[i]);
  }
  if (record)
    opt.tape_cache->get_or_record(key, [&] { return builder.take(); });
  if (stored)
    for (std::size_t pi : pending)
      opt.result_store->save(skeys[pi], to_stored(out[pi]));
}

}  // namespace

std::vector<std::vector<ImprovementRow>> sweep_axis_shared_decode(
    const std::vector<MachineConfig>& machines, const RunOptions& opt,
    const ParallelSweepOptions& par) {
  SELCACHE_CHECK_MSG(tape_eligible(opt, nullptr) && !opt.degrade.armed(),
                     "sweep_axis_shared_decode needs a tape-eligible run "
                     "(reuse_tape, no faults/watchdog/degrade)");
  const auto& suite = workloads::all_workloads();
  const std::size_t nv = kAllVersions.size();

  const bool one_group =
      !machines.empty() &&
      std::all_of(machines.begin(), machines.end(),
                  [&](const MachineConfig& m) {
                    return share_structure(machines.front(), m);
                  });
  // Without a store no cell records a tape, so one structural group rides
  // shared interpretations.
  if (opt.result_store == nullptr && one_group)
    return axis_rows(suite,
                     ride_axis(suite, machines, opt, par.num_threads, nullptr),
                     machines.size());

  // per_cell[wi * nv + vi][pi]: every result of the whole axis, computed
  // cell-major and assembled point-major in fixed order — the same rows
  // per-point sweep_suite calls would build.
  const std::size_t np = machines.size();
  std::vector<std::vector<RunResult>> per_cell(suite.size() * nv);
  support::run_cells(per_cell.size(), par.num_threads, [&](std::size_t i) {
    run_cell_shared_decode(suite[i / nv], kAllVersions[i % nv], machines, opt,
                           per_cell[i]);
  });
  std::vector<std::optional<RunResult>> cells(per_cell.size() * np);
  for (std::size_t k = 0; k < cells.size(); ++k)
    cells[k] = std::move(per_cell[k / np][k % np]);
  return axis_rows(suite, std::move(cells), np);
}

double average_improvement(const std::vector<ImprovementRow>& rows, Version v,
                           const workloads::Category* filter) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& row : rows) {
    if (filter != nullptr && row.category != *filter) continue;
    auto it = row.pct.find(v);
    if (it == row.pct.end()) continue;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace selcache::core
