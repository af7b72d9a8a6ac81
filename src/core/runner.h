// Experiment runner: execute (workload x machine x version x scheme) and
// report cycles, miss rates, and improvement over the Base version.
//
// The engine has two execution modes with one determinism contract:
// every (workload, version) simulation owns all of its mutable state
// (Hierarchy, HwScheme, Controller, TimingModel, DataEnv), so the parallel
// fan-out runs the exact same per-simulation code as the serial loop and
// merges results in fixed workload order — the output is bit-identical to
// a serial sweep, regardless of thread count or scheduling.
#pragma once

#include <array>
#include <map>

#include "core/versions.h"
#include "fault/fault.h"
#include "fault/report.h"
#include "tape/tape.h"
#include "trace/sink.h"
#include "workloads/registry.h"

namespace selcache::tape {
class TapeCache;
}

namespace selcache::store {
class ResultStore;
}

namespace selcache::support {
class RunGuard;
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
  /// bit-identical to a pre-fault-layer simulation.
  fault::FaultConfig fault{};
  /// Abort the run (fault::WatchdogExceeded) after this many hierarchy
  /// accesses; 0 disables the watchdog.
  std::uint64_t watchdog_accesses = 0;
  /// Controller self-check policy; default-disarmed.
  hw::DegradePolicy degrade{};
  /// Record-once / replay-many: serve this run from a trace tape when one
  /// exists for its (workload, version, stream-fingerprint) key, recording
  /// it on first use. Replay is bit-identical to interpretation, so machine
  /// sweeps over a fixed cell matrix pay the IR pipeline once per cell.
  /// Fault-armed runs (a fault campaign or an access watchdog) always fall
  /// back to plain interpretation and never touch the cache.
  bool reuse_tape = false;
  /// Cache consulted by reuse_tape; nullptr = the process-global cache.
  tape::TapeCache* tape_cache = nullptr;
  /// Ops per decoded batch for batched tape replay (tape::MultiReplayer).
  /// 0 = classic streaming replay (decode and simulate fused, one pass).
  /// Any value selects the batched decode loop for replay_tape and the
  /// shared-decode sweep engines; the op stream each simulation sees is
  /// identical either way, so results are bit-identical at any batch size.
  std::uint32_t batch = 0;
  /// Persistent result store consulted before simulating and updated after
  /// (nullptr = no store). A hit skips the whole simulation — program
  /// construction, pipeline, interpretation — and reconstructs the
  /// RunResult from disk, bit-identical to a fresh run. Fault-armed,
  /// watchdog-armed, degrade-armed, and traced runs bypass the store
  /// (mirroring the tape rule: their outputs are not pure functions of the
  /// cell key, or carry a recording the store does not).
  store::ResultStore* result_store = nullptr;
  /// Run-supervision guard polled once per hierarchy access (nullptr = no
  /// supervision). Unlike the fault injector it exports no stats and never
  /// perturbs results, so it does NOT affect tape or store eligibility —
  /// it only adds two exit paths (support::RunSuspended on the run's stop
  /// token, support::CellDeadlineExceeded on the cell's wall clock). Not
  /// thread-safe: give each parallel task its own guard.
  support::RunGuard* run_guard = nullptr;
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
/// non-null the run records a phase trace into it (epoch metrics every
/// opt.trace_epoch accesses plus discrete toggle/decay/bypass/promotion
/// events); pass nullptr for an untraced run at full speed.
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
/// simulation: pass `result` / `trace_out` to keep its results. Must not be
/// called with a fault campaign or watchdog armed (the tape would capture a
/// truncated or perturbed stream); run_version enforces the same rule by
/// falling back to interpretation.
tape::Tape record_tape(const workloads::WorkloadInfo& w,
                       const MachineConfig& m, Version v,
                       const RunOptions& opt = {}, RunResult* result = nullptr,
                       trace::Recording* trace_out = nullptr);

/// Replay a recorded tape on machine `m` as version `v`, reconstructing the
/// machine exactly as run_version would and driving it with the tape
/// instead of the IR. Bit-identical to the interpreted run for any machine.
/// With opt.batch > 0 the tape is decoded through the batched loop
/// (tape::MultiReplayer) instead of the fused streaming replayer.
RunResult replay_tape(const tape::Tape& t, const MachineConfig& m, Version v,
                      const RunOptions& opt = {},
                      trace::Recording* trace_out = nullptr);

/// Replay one tape across N machine configurations with a SINGLE decode:
/// the tape expands once into op batches, and every batch drives each
/// Simulation before the next batch is decoded. Untraced machines that
/// differ only in main-memory latency share one Simulation: one structural
/// pass, priced at each machine's latency. Every other machine — traced,
/// or in a fault-, watchdog- or degrade-armed run — gets its own. Results
/// are in machines order and bit-identical to N separate replay_tape calls
/// — at any par.num_threads (each simulation is driven by one task at a
/// time, in strict tape order) and any opt.batch. `traces` (optional)
/// supplies one Recording* per machine (entries may be nullptr); traced
/// simulations record exactly what a solo traced replay would. With
/// par.num_threads > 1 opt.run_guard must be nullptr (a RunGuard is not
/// thread-safe, and here it would be polled by every simulation
/// concurrently).
std::vector<RunResult> multi_replay_tape(
    const tape::Tape& t, const std::vector<MachineConfig>& machines, Version v,
    const RunOptions& opt = {}, const ParallelSweepOptions& par = {},
    const std::vector<trace::Recording*>* traces = nullptr);

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

/// Assemble one figure row from the five per-version results (kAllVersions
/// order). This is the exact row constructor the sweep engines use, exposed
/// so the checkpoint engine can rebuild rows from per-cell results (stored
/// or fresh) and stay bit-identical to an uninterrupted sweep.
ImprovementRow make_improvement_row(const workloads::WorkloadInfo& w,
                                    const std::array<RunResult, 5>& results);

/// Fingerprint of every RunOptions field the recorded access stream depends
/// on (data seed + optimization pipeline + method-predictor config). One
/// input of the run-ledger RunId.
std::uint64_t stream_fingerprint(const RunOptions& opt);

/// Fingerprint of every machine parameter a simulation's outputs depend on.
/// The other machine-side input of the run-ledger RunId.
std::uint64_t machine_fingerprint(const MachineConfig& m);

/// When `traces` is non-null, every per-version run is traced and its
/// recording appended in fixed version order (the determinism contract
/// extends to traces: each task records privately; captures are appended
/// in kAllVersions order regardless of scheduling).
ImprovementRow improvements_for(const workloads::WorkloadInfo& w,
                                const MachineConfig& m,
                                const RunOptions& opt = {},
                                const ParallelSweepOptions& par = {},
                                std::vector<TraceCapture>* traces = nullptr);

/// Whole-suite sweep (all 13 benchmarks) for one machine+scheme. With
/// par.num_threads > 1 the 13x5 independent simulations fan out over a
/// worker pool; results are merged in workload order and are bit-identical
/// to the serial sweep. `traces` (optional) collects per-(workload, version)
/// recordings in (workload, version) order — also bit-identical across
/// thread counts.
std::vector<ImprovementRow> sweep_suite(const MachineConfig& m,
                                        const RunOptions& opt = {},
                                        const ParallelSweepOptions& par = {},
                                        std::vector<TraceCapture>* traces = nullptr);

/// Whole-AXIS sweep with shared decode: the full suite over every machine
/// point of a figure axis, decoding each (workload, version) cell's tape
/// ONCE and fanning the batches out to the pending machine points
/// (tape::MultiReplayer) instead of re-decoding per point. Points that
/// differ only in main-memory latency share one structural simulation; the
/// recording run prices the whole group of the first pending point, so a
/// pure latency axis interprets and simulates each cell once. Returns
/// rows[point] exactly as `machines.size()` sweep_suite calls would — same
/// rows, same stats, same store cells — just cheaper. Requires a
/// tape-eligible configuration (opt.reuse_tape set, no fault campaign or
/// watchdog, opt.degrade disarmed). The persistent store (if attached) is
/// consulted per (cell, point) before simulating and updated after, like
/// run_version. With par.num_threads > 1 the 13x5 cells fan out over a
/// worker pool (each cell multi-replays its points on one thread); results
/// merge in fixed (workload, version, point) order — bit-identical to the
/// serial engine and to per-point sweep_suite at any thread count.
std::vector<std::vector<ImprovementRow>> sweep_axis_shared_decode(
    const std::vector<MachineConfig>& machines, const RunOptions& opt = {},
    const ParallelSweepOptions& par = {});

/// Controls for a failure-isolated ("resilient") sweep: the fault campaign
/// applied to every cell, how often a failed cell is retried, and the
/// degradation policy armed in each controller.
struct FaultSweepOptions {
  /// Per-cell fault campaign. `fault.seed` is the SWEEP-level base seed;
  /// each (workload, version, attempt) derives its own injector seed via
  /// fault::task_seed, so results are reproducible at any thread count and
  /// every retry sees a fresh but deterministic fault stream.
  fault::FaultConfig fault{};
  /// Re-attempts after a failed cell (attempts = max_retries + 1).
  std::uint32_t max_retries = 1;
  /// Per-cell access watchdog (0 = off).
  std::uint64_t watchdog_accesses = 0;
  /// Degradation policy armed in every cell's controller.
  hw::DegradePolicy degrade{};
};

/// Result of a resilient sweep: the usual figure rows plus the per-cell
/// outcome ledger. A failed cell contributes 0.0 improvement to its row
/// (and nothing to its stats); the FailureReport is the source of truth
/// for which cells are valid.
struct ResilientSweep {
  std::vector<ImprovementRow> rows;
  fault::FailureReport report;
};

/// Failure-isolated version of improvements_for: each (workload, version)
/// cell runs guarded, so an injected crash, watchdog kill, or any other
/// exception fails only that cell. Never throws for per-cell failures.
ResilientSweep improvements_for_resilient(
    const workloads::WorkloadInfo& w, const MachineConfig& m,
    const RunOptions& opt, const ParallelSweepOptions& par,
    const FaultSweepOptions& fopt,
    std::vector<TraceCapture>* traces = nullptr);

/// Failure-isolated version of sweep_suite. Rows, FailureReport, and trace
/// captures are merged in fixed (workload, version) order — bit-identical
/// for any par.num_threads, like the un-faulted engine.
ResilientSweep sweep_suite_resilient(
    const MachineConfig& m, const RunOptions& opt,
    const ParallelSweepOptions& par, const FaultSweepOptions& fopt,
    std::vector<TraceCapture>* traces = nullptr);

/// Average of a version's improvement across rows, optionally filtered by
/// category (nullptr = all).
double average_improvement(const std::vector<ImprovementRow>& rows, Version v,
                           const workloads::Category* filter = nullptr);

/// Stable lowercase key for stat prefixes ("base", "purehw", "puresw",
/// "combined", "selective").
const char* version_key(Version v);

}  // namespace selcache::core
