// Checkpointed sweep engine: executes a RunSpec's cell matrix under a
// write-ahead journal so the run can be killed — SIGKILL included — at any
// point and resumed to the byte-identical output of an uninterrupted run.
//
// A cell is one (workload, version) simulation. Its lifecycle is journaled
// as planned -> started(attempt, seed) -> done(result fingerprint) |
// failed(attempt, reason) | quarantined(reason), with run-level records
// around it (run header, suspended, complete). The journal records
// TRANSITIONS; the run directory's result store holds the cell RESULTS
// (the same store core::run_version already consults), so:
//
//   * a `done` record whose stored result round-trips with a matching
//     fingerprint is trusted and never re-simulated;
//   * a `done` record whose result is missing or mismatched (store file
//     lost, torn, or edited) degrades to a re-run — the journal is a
//     promise about history, the store is re-verified every resume;
//   * everything else (planned/started/failed) re-plans the cell.
//
// Suspension: the engine polls a stop token (typically a SignalGuard's)
// and an optional whole-run deadline at access granularity via
// support::RunGuard. A trip abandons the in-flight cells (RunSuspended
// unwinds them; their partial state is task-local); every cell not yet
// started sees the stop at its attempt boundary and returns without
// journaling. The engine then appends a `suspended` record, flushes the
// cells.csv ledger, and returns with outcome.suspended set. Nothing torn is left
// behind: every artifact goes through the atomic writer, and the journal
// reader drops a torn tail by design.
//
// Failure: a cell attempt that throws anything else (injected crash,
// internal check, cell wall-clock deadline) is retried up to
// opts.cell_retries times with bounded exponential backoff and
// deterministic seed-derived jitter, then quarantined. Quarantined cells
// contribute 0.0 improvement to their row, mirroring the resilient sweep
// engine's convention.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.h"
#include "run/spec.h"

namespace selcache::run {

struct CheckpointOptions {
  unsigned threads = 0;  ///< 0/1 = serial, N = worker pool
  /// Whole-run wall-clock budget (0 = none). Expiry suspends the run at a
  /// cell boundary, exactly like a signal; `resume` picks it back up.
  std::uint64_t run_deadline_ms = 0;
  /// Per-cell wall-clock soft deadline (0 = none). Expiry fails the
  /// ATTEMPT (retried, then quarantined), not the run.
  std::uint64_t cell_deadline_ms = 0;
  std::uint32_t cell_retries = 1;  ///< attempts = cell_retries + 1
  /// Base for retry backoff: delay before attempt k (k >= 1) is
  /// base * 2^(k-1) plus deterministic jitter in [0, base). 0 = no wait.
  std::uint64_t retry_backoff_ms = 0;
  /// External stop token (nonzero = suspend); typically
  /// support::SignalGuard::token(). May be null.
  const std::atomic<int>* stop = nullptr;
};

/// Terminal state of one cell after execute().
struct CellOutcome {
  std::string workload;
  std::string version;      ///< core::version_key string
  std::string status;       ///< done | stored | quarantined | pending
  std::uint32_t attempts = 0;
  std::string reason;       ///< last failure reason (quarantined cells)
};

struct CheckpointOutcome {
  /// Non-empty = the run could not execute at all (unusable journal, spec
  /// mismatch, unwritable run directory). Cell failures are NOT errors.
  std::string error;

  std::vector<core::ImprovementRow> rows;  ///< fixed workload order
  bool suspended = false;  ///< stopped at a cell boundary; resume to finish
  bool complete = false;   ///< every cell reached done|quarantined

  std::string id;  ///< the run's content fingerprint (run_id(spec))
  std::vector<CellOutcome> cells;  ///< fixed (workload, version) order
  std::uint64_t cells_done = 0;        ///< simulated to completion this call
  std::uint64_t cells_from_store = 0;  ///< trusted done records (resume)
  std::uint64_t cells_quarantined = 0;
  std::uint64_t failed_attempts = 0;
};

/// Deterministic backoff before retry attempt `attempt` (1-based; attempt 0
/// is the first try and never waits): base * 2^(attempt-1), exponent capped,
/// plus seed-derived jitter in [0, base) so parallel retries de-correlate
/// without a global RNG. Exposed for tests.
std::uint64_t retry_backoff_delay_ms(std::uint64_t base_ms,
                                     const std::string& workload,
                                     std::size_t version_index,
                                     std::uint32_t attempt);

/// Execute (or resume) the run described by `spec` in `run_dir`. Creates
/// the directory, journal, and result store on first use; on a non-empty
/// journal it validates the header against `spec` (id mismatch = error)
/// and continues from the journaled state.
CheckpointOutcome run_checkpointed(const std::string& run_dir,
                                   const RunSpec& spec,
                                   const CheckpointOptions& opts);

/// Execute (or resume) whatever run `run_dir`'s journal describes — the
/// `selcache resume` entry point. Fails if there is no usable header.
CheckpointOutcome resume_checkpointed(const std::string& run_dir,
                                      const CheckpointOptions& opts);

/// Read-only journal inspection for `selcache resume --status`.
struct RunStatus {
  std::string error;  ///< non-empty = no usable journal
  RunSpec spec;
  std::string id;
  std::vector<CellOutcome> cells;  ///< status: done|started|failed|planned|quarantined
  bool suspended = false;  ///< last run-level event was a suspension
  bool complete = false;
  bool torn_tail = false;
  std::uint64_t bytes_dropped = 0;
};

RunStatus inspect_run(const std::string& run_dir);

}  // namespace selcache::run
