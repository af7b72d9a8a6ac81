// Experiment runner: execute (workload x machine x version x scheme) and
// report cycles, miss rates, and improvement over the Base version.
//
// The engine has two execution modes with one determinism contract:
// every unit of work owns all of its mutable state (Hierarchy, HwScheme,
// Controller, TimingModel, DataEnv, and a ride's shared stream side), so
// the parallel fan-out runs the exact same per-simulation code as the
// serial loop and merges results in fixed workload order — the output is
// bit-identical to a serial sweep, regardless of thread count or
// scheduling.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <span>

#include "core/versions.h"
#include "fault/fault.h"
#include "fault/report.h"
#include "tape/tape.h"
#include "trace/recording.h"
#include "workloads/registry.h"

namespace selcache::tape {
class TapeCache;
}

namespace selcache::store {
class ResultStore;
struct StoredResult;
}

namespace selcache::core {

struct RunOptions {
  hw::SchemeKind scheme = hw::SchemeKind::Bypass;
  transform::OptimizeOptions optimize{};
  bool classify_misses = false;  ///< maintain the 3C shadow (Table 2 column)
  std::uint64_t data_seed = 0x5e1c4c4eULL;
  /// Epoch length (demand accesses per metrics snapshot) when a trace
  /// recording is requested; ignored otherwise.
  std::uint64_t trace_epoch = 10000;
  /// Fault campaign for this run. Default (kind None, rate 0) means no
  /// injector is built and every fault hook stays nullptr — the run is
  /// bit-identical to a pre-fault-layer simulation. sweep_resilient derives
  /// each cell attempt's seed from fault.seed.
  fault::FaultConfig fault{};
  /// Abort the run (fault::WatchdogExceeded) after this many hierarchy
  /// accesses; 0 disables the watchdog.
  std::uint64_t watchdog_accesses = 0;
  /// Controller self-check policy; default-disarmed.
  hw::DegradePolicy degrade{};
  /// Serve this run from a trace tape when one exists for its (workload,
  /// version, stream-fingerprint) key in opt.tape_cache, recording it on
  /// first use. Replay is bit-identical to interpretation. No command sets
  /// it: the axis engine (sweep_axis) shares interpretations through ride
  /// groups instead, and only the benchmark harness and the tape layer's own
  /// tests use tapes. Traced and fault-armed runs (a fault campaign or an
  /// access watchdog) always interpret and never touch the cache.
  bool reuse_tape = false;
  /// The cache reuse_tape reads and fills; run_version and
  /// sweep_axis_shared_decode throw std::logic_error when reuse_tape is set
  /// without one.
  tape::TapeCache* tape_cache = nullptr;
  /// Ops per decoded batch in multi_replay_tape (tape::kDefaultBatchOps
  /// when 0). The op stream each simulation sees is identical at any batch
  /// size, so results are too.
  std::uint32_t batch = 0;
  /// Persistent result store consulted before simulating and updated after
  /// (nullptr = no store). A hit skips the whole simulation — program
  /// construction, pipeline, interpretation — and reconstructs the
  /// RunResult from disk, bit-identical to a fresh run. Fault-armed,
  /// watchdog-armed, degrade-armed, and traced runs bypass the store
  /// (mirroring the tape rule: their outputs are not pure functions of the
  /// cell key, or carry a recording the store does not).
  store::ResultStore* result_store = nullptr;
};

/// How to schedule the independent simulations of a sweep.
struct ParallelSweepOptions {
  /// Worker threads for the (workload, version) fan-out. 0 or 1 = run
  /// serially on the calling thread (no pool is created).
  unsigned num_threads = 0;
};

struct RunResult {
  Cycle cycles = 0;
  InstrCount instructions = 0;
  double l1_miss_rate = 0.0;  ///< combined L1 (data + instruction), Table 2
  double l2_miss_rate = 0.0;
  double conflict_share = 0.0;  ///< of classified L1D misses (if enabled)
  std::uint64_t toggles = 0;
  std::uint64_t faults_injected = 0;  ///< 0 unless a fault campaign ran
  std::uint64_t degradations = 0;     ///< safe-mode demotions (0 or 1)
  StatSet stats;
};

/// Simulate one version of one workload on one machine. When `trace_out` is
/// non-null the run interprets and records a phase trace into it (epoch
/// metrics every opt.trace_epoch accesses plus discrete toggle/decay/
/// bypass/promotion events), bypassing the store and the tape cache; pass
/// nullptr for an untraced run at full speed.
RunResult run_version(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt = {},
                      trace::Recording* trace_out = nullptr);

/// TapeCache key for one run: workload, version, plus a fingerprint of
/// everything else the recorded stream depends on (data seed, optimization
/// pipeline settings). The machine is deliberately absent — the stream is
/// machine-invariant, which is what makes record-once/replay-many sweeps
/// possible.
std::string tape_key(const workloads::WorkloadInfo& w, Version v,
                     const RunOptions& opt);

/// Persistent-store key for one cell: workload, version, scheme, a
/// fingerprint of every machine parameter, the stream fingerprint (data
/// seed + optimization pipeline + method-predictor configuration), the
/// miss-classification flag, and the store format version. Unlike
/// tape_key, the machine IS part of the identity — a stored result is the
/// response of one machine to the stream, not the stream itself.
std::string store_key(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt);

/// Record one (workload, version) trace tape by running an instrumented
/// interpretation on machine `m`. The recording run is a bona fide
/// simulation: pass `result` to keep its results. Must not be called with a
/// fault campaign or watchdog armed (the tape would capture a truncated or
/// perturbed stream); run_version enforces the same rule by falling back to
/// interpretation.
tape::Tape record_tape(const workloads::WorkloadInfo& w,
                       const MachineConfig& m, Version v,
                       const RunOptions& opt = {}, RunResult* result = nullptr);

/// Replay a recorded tape on machine `m` as version `v`, reconstructing the
/// machine exactly as run_version would and driving it with the tape
/// instead of the IR. Bit-identical to the interpreted run for any machine.
RunResult replay_tape(const tape::Tape& t, const MachineConfig& m, Version v,
                      const RunOptions& opt = {});

/// Replay one tape across N machine configurations with a SINGLE decode:
/// the tape expands once into batches of opt.batch ops, and every batch
/// drives each Simulation, interleaved on the calling thread, before the
/// next batch is decoded. Machines that differ only in main-memory latency
/// share one Simulation: one structural pass, priced at each machine's
/// latency. In a fault-, watchdog- or degrade-armed run every machine gets
/// its own. Results are in machines order and bit-identical to N separate
/// replay_tape calls at any opt.batch.
std::vector<RunResult> multi_replay_tape(
    const tape::Tape& t, const std::vector<MachineConfig>& machines, Version v,
    const RunOptions& opt = {});

/// One (workload, version) phase-trace recording from a sweep.
struct TraceCapture {
  std::string workload;
  Version version = Version::Base;
  trace::Recording recording;
};

/// Improvements (%) of the four evaluated versions over Base for one
/// workload on one machine — one bar group of Figures 4-9.
struct ImprovementRow {
  std::string benchmark;
  workloads::Category category = workloads::Category::Mixed;
  Cycle base_cycles = 0;
  /// Keyed by version; percent improvement in execution cycles over Base.
  std::map<Version, double> pct;
  /// Simulated L1 (data + instruction) demand accesses summed over all five
  /// versions — the work metric for engine-throughput benchmarks.
  std::uint64_t accesses = 0;
  /// Per-version simulator counters, merged with a "<version>." prefix
  /// (e.g. "selective.l1d.misses"). Part of the determinism contract.
  StatSet stats;
};

/// Assemble one figure row from the per-version results (kAllVersions
/// order). A missing (failed or quarantined) cell contributes 0.0
/// improvement and no accesses or stats, so a figure table always renders
/// a full row. Every sweep engine, the checkpoint engine included, builds
/// its rows here; that shared path keeps their outputs bit-identical.
ImprovementRow make_row_partial(
    const workloads::WorkloadInfo& w,
    const std::array<std::optional<RunResult>, 5>& results);

/// make_row_partial with all five results present.
ImprovementRow make_improvement_row(const workloads::WorkloadInfo& w,
                                    const std::array<RunResult, 5>& results);

/// The RunResult a persistent-store cell holds (faults_injected and
/// degradations are 0: only runs without them are stored).
RunResult from_stored(const store::StoredResult& s);

/// Fingerprint of every RunOptions field the recorded access stream depends
/// on (data seed + optimization pipeline + method-predictor config). One
/// input of the run-ledger RunId.
std::uint64_t stream_fingerprint(const RunOptions& opt);

/// Fingerprint of every machine parameter a simulation's outputs depend on.
/// The other machine-side input of the run-ledger RunId.
std::uint64_t machine_fingerprint(const MachineConfig& m);

/// The five versions of one workload on one machine, run like sweep_suite.
/// When `traces` is non-null, every version's simulation is traced and its
/// recording appended in fixed version order (the determinism contract
/// extends to traces: each Simulation records privately, a copied version
/// takes its source's recording, and captures are appended in kAllVersions
/// order regardless of scheduling).
ImprovementRow improvements_for(const workloads::WorkloadInfo& w,
                                const MachineConfig& m,
                                const RunOptions& opt = {},
                                const ParallelSweepOptions& par = {},
                                std::vector<TraceCapture>* traces = nullptr);

/// Whole-suite sweep (all 13 benchmarks) for one machine+scheme. The cells
/// run on support::run_cells (a worker pool when par.num_threads > 1);
/// results are merged in workload order and are bit-identical to the serial
/// sweep and to solo run_version calls. A cell's exception propagates once
/// every cell has finished (the lowest-index one, at any thread count).
/// `traces` (optional) collects per-(workload, version) recordings in
/// (workload, version) order — also bit-identical across thread counts.
///
/// Without tapes, or a fault, watchdog or degrade campaign, this is the
/// one-point case of sweep_axis: the unit of work is a ride group
/// (ride_groups), one interpretation of a code product driving one
/// Simulation per version it serves, and versions whose code equals
/// Base's take its results (and, when traced, its recording). Untraced,
/// Selective rides its twin's Simulation until a marker first changes its
/// machine, then forks one of its own (see RideGroups). An untraced
/// sweep consults the store per version first and saves copies under
/// their own keys; a traced one neither reads nor writes it. The products
/// are built before any cell runs, so a workload whose program fails to
/// build throws then. Options that rule rides out run one run_version call
/// per cell.
std::vector<ImprovementRow> sweep_suite(const MachineConfig& m,
                                        const RunOptions& opt = {},
                                        const ParallelSweepOptions& par = {},
                                        std::vector<TraceCapture>* traces = nullptr);

/// The suite at every point of a machine axis: rows[point], exactly as
/// machines.size() sweep_suite calls would build them. Points that differ
/// only in main-memory latency form one structural group, which gets one
/// ride pass whose Simulations price all of its points; the units of every
/// pass run on one support::run_cells call. The store (if attached) is read
/// and written per (cell, point): a cell is simulated in a group when any
/// of the group's points missed, and only missed points are saved, each as
/// its unit finishes. Options must allow rides (no tapes, no fault,
/// watchdog or degrade campaign); others throw std::logic_error.
///
/// Once support::SignalGuard::stop_requested() is set (only an installed
/// guard that caught a signal sets it), no further unit starts and the call
/// throws support::RunSuspended; cells already saved stay valid.
std::vector<std::vector<ImprovementRow>> sweep_axis(
    const std::vector<MachineConfig>& machines, const RunOptions& opt = {},
    const ParallelSweepOptions& par = {},
    std::span<const workloads::WorkloadInfo> suite =
        workloads::all_workloads());

/// How a caller that keeps its own record of cells (the checkpoint
/// journal) follows run_units. Cell wi * kAllVersions.size() + vi is
/// version vi of workload wi. The hooks run on the workers, concurrently;
/// no two calls at once concern the same cell.
struct UnitHooks {
  /// Before a unit starts, with its cells; false skips the unit, leaving
  /// its cells and the copies they feed unsettled.
  std::function<bool(const std::vector<std::size_t>& cells)> start;
  /// After a cell's result is settled (and saved, when a store is
  /// attached), copies included.
  std::function<void(std::size_t cell, const RunResult& r)> saved;
  /// When a unit throws: its cells and the copies that depend on them, none
  /// of which is settled. A copy whose source the caller neither asked for
  /// nor supplied is reported here too.
  std::function<void(const std::vector<std::size_t>& cells,
                     const std::string& reason)>
      failed;
};

/// The ride units of one machine's sweep over exactly the cells `todo`
/// marks: planned and run as sweep_suite would (par.num_threads sets the
/// critical-path rule), each result settled into `cells` and saved to
/// opt.result_store (if attached) without reading the store. A copy takes
/// its source's result from `cells`, so the caller supplies the results of
/// cells it does not mark. Options must allow rides (no tapes, no fault,
/// watchdog or degrade campaign).
void run_units(std::span<const workloads::WorkloadInfo> suite,
               const MachineConfig& m, const RunOptions& opt,
               const ParallelSweepOptions& par, const std::vector<bool>& todo,
               std::vector<std::optional<RunResult>>& cells,
               const UnitHooks& hooks);

/// Which versions of one workload one interpretation can drive, decided by
/// ir::same_code on its three built code products (§4.4).
///   * Base and Pure Hardware ride the original code.
///   * Pure Software and Combined ride Selective's marked code when the
///     optimized code equals it with the markers removed; only Selective
///     receives the markers.
///   * When the optimized code also equals the original, one interpretation
///     drives Base, Pure Hardware and Selective, and Pure Software and
///     Combined take Base's and Pure Hardware's results (`copies`).
/// A ride interprets the product of its last version. In an untraced ride,
/// Selective's machine stays one of its twins' (the scheme-less version's
/// while its markers hold the scheme OFF, the always-on one's while they
/// hold it ON) until a data access first finds it in a state its twin does
/// not share: until then it prices as extra points on that twin's
/// simulation, and there it forks a copy of the twin's machine.
struct RideGroups {
  /// One entry per interpretation: the versions it simulates, one
  /// Simulation each, in kAllVersions order.
  std::vector<std::vector<Version>> rides;
  /// The optimized code equals the original: Pure Software and Combined
  /// are not simulated.
  bool copies = false;
};

RideGroups ride_groups(const ir::Program& original,
                       const ir::Program& optimized, const ir::Program& marked);

/// Counts of the work a shared sweep plans.
struct SweepPlan {
  std::size_t interpretations = 0;
  std::size_t simulations = 0;
  std::size_t copies = 0;  ///< versions that take another version's result
};

/// The plan sweep_suite / improvements_for run for `suite` at
/// par.num_threads, untraced, with every version a store miss.
/// Each workload's ride groups are kept merged while a group's simulated
/// references (its code's ir::Program::dynamic_ref_count times its
/// simulations) are at most 1/num_threads of the sweep's total; a larger
/// group would set the sweep's critical path, so its versions run as
/// separate interpretations (copies are kept). A Selective whose code runs
/// no marker, beside its scheme-less twin, holds that twin's machine
/// throughout: it counts as no simulation and stays on the twin's
/// interpretation. A traced sweep gives every Selective a simulation of its
/// own. Options that rule sharing out give one interpretation and one
/// simulation per version.
SweepPlan plan_sweep(std::span<const workloads::WorkloadInfo> suite,
                     const RunOptions& opt = {},
                     const ParallelSweepOptions& par = {});

/// The suite over every machine point of a figure axis, built on a tape
/// cache: rows[point] exactly as `machines.size()` sweep_suite calls would
/// build them — same rows, same stats, same store cells. Requires a
/// tape-eligible configuration (opt.reuse_tape with opt.tape_cache, no
/// fault campaign or watchdog, opt.degrade disarmed). When every point
/// shares structure with the first and no store is attached, the cells run
/// on sweep_axis's ride engine, so such an axis interprets each code
/// product once and neither reads nor fills the cache. Otherwise each
/// (workload, version) cell is one support::run_cells task: its store hits
/// (if a store is attached) are served per point, and its product is built
/// once and interpreted once per structural group of its pending points,
/// pricing every point of the group. The first group's run records the
/// cell's tape only when a writable store lets the caller keep it
/// (ResultStore::persist_tapes) and the cache lacks it. No tape is
/// replayed. Fresh results are saved under run_version's store keys, and
/// results merge in fixed (workload, version, point) order, bit-identical
/// at any thread count.
std::vector<std::vector<ImprovementRow>> sweep_axis_shared_decode(
    const std::vector<MachineConfig>& machines, const RunOptions& opt = {},
    const ParallelSweepOptions& par = {});

/// Result of a resilient sweep: the usual figure rows plus the per-cell
/// outcome ledger. A failed cell contributes 0.0 improvement to its row
/// (and nothing to its stats); the FailureReport is the source of truth
/// for which cells are valid.
struct ResilientSweep {
  std::vector<ImprovementRow> rows;
  fault::FailureReport report;
};

/// Failure-isolated sweep over `workloads` (one, or all_workloads()): each
/// (workload, version) cell runs guarded, so an injected crash, watchdog
/// kill, or any other exception fails only that cell, which is retried up
/// to `max_retries` times (attempts = max_retries + 1) and then reported
/// Failed. The campaign is opt.fault, opt.watchdog_accesses and
/// opt.degrade; opt.fault.seed is the SWEEP-level base seed, from which
/// each (workload, version, attempt) derives its own injector seed via
/// fault::task_seed, so every retry sees a fresh but deterministic fault
/// stream. Rows, FailureReport, and trace captures are merged in fixed
/// (workload, version) order — bit-identical for any par.num_threads, like
/// the plain engine. Never throws for per-cell failures.
ResilientSweep sweep_resilient(
    std::span<const workloads::WorkloadInfo> workloads, const MachineConfig& m,
    const RunOptions& opt, const ParallelSweepOptions& par,
    std::uint32_t max_retries, std::vector<TraceCapture>* traces = nullptr);

/// Average of a version's improvement across rows, optionally filtered by
/// category (nullptr = all).
double average_improvement(const std::vector<ImprovementRow>& rows, Version v,
                           const workloads::Category* filter = nullptr);

/// Stable lowercase key for stat prefixes ("base", "purehw", "puresw",
/// "combined", "selective").
const char* version_key(Version v);

}  // namespace selcache::core
