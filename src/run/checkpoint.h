// Checkpointed sweep: a write-ahead journal around core's one unit loop
// (core::run_units), so the run can be killed — SIGKILL included — at any
// point and resumed to the byte-identical output of an uninterrupted run.
//
// A cell is one (workload, version) simulation. Its lifecycle is journaled
// as planned -> started -> done(result fingerprint) | failed(reason) +
// quarantined(reason), with run-level records around it (run header,
// suspended, complete). The journal records TRANSITIONS; the run
// directory's result store holds the cell RESULTS, so:
//
//   * a `done` record whose stored result round-trips with a matching
//     fingerprint is trusted and never re-simulated;
//   * a `done` record whose result is missing or mismatched (store file
//     lost, torn, or edited) degrades to a re-run — the journal is a
//     promise about history, the store is re-verified every resume;
//   * everything else (planned/started/failed) re-plans the cell.
//
// Every cell the journal cannot vouch for goes to core::run_units, which
// plans ride units for exactly those cells (as the plain sweep would),
// simulates them without reading them back from the store, and saves each
// result. Its hooks journal `started` for a unit's cells before it runs,
// `done` after each cell is saved (copies included), and `failed` +
// `quarantined` for a unit that throws, along with the copies that depend
// on it. A unit's failure is a deterministic error (--run-dir refuses fault
// injection), so it is not retried. Quarantined cells contribute 0.0
// improvement to their row, mirroring the resilient sweep engine.
//
// Suspension: a stop token (typically a SignalGuard's) or the whole-run
// deadline is checked as each unit is about to start. Once either trips,
// in-flight units finish and are journaled, and no other unit starts: its
// cells stay unjournaled. The engine then appends a `suspended` record,
// flushes the cells.csv ledger, and returns with outcome.suspended set.
// Nothing torn is left behind: every artifact goes through the atomic
// writer, and the journal reader drops a torn tail by design.
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
  /// Whole-run wall-clock budget (0 = none). Expiry suspends the run as the
  /// next unit would start, exactly like a signal; `resume` picks it back
  /// up.
  std::uint64_t run_deadline_ms = 0;
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
  bool suspended = false;  ///< stopped at a unit boundary; resume to finish
  bool complete = false;   ///< every cell reached done|quarantined

  std::string id;  ///< the run's content fingerprint (run_id(spec))
  std::vector<CellOutcome> cells;  ///< fixed (workload, version) order
  std::uint64_t cells_done = 0;        ///< simulated to completion this call
  std::uint64_t cells_from_store = 0;  ///< trusted done records (resume)
  std::uint64_t cells_quarantined = 0;
};

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
