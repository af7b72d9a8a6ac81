// Run identity: what a checkpointed invocation IS, independent of how many
// threads execute it or how many times it is interrupted and resumed.
//
// The RunSpec captures every input that shapes the run's output — the cell
// matrix (kind + workload), the machine and scheme (by their stable CLI
// short ids), and the output paths the CLI will write.
// The RunId is an FNV-1a fingerprint over the spec plus the machine/stream
// fingerprints core already derives for the result store, so two
// invocations get the same id exactly when an uninterrupted run of either
// would produce byte-identical output.
//
// The spec is journaled as the run's first record and checked on resume: a
// RUN_DIR whose journal disagrees with its recomputed id (edited spec,
// mismatched store) is rejected instead of quietly producing a franken-run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "run/journal.h"

namespace selcache::run {

struct RunSpec {
  std::string kind;      ///< "sweep" (one workload) or "suite" (all 13)
  std::string workload;  ///< workload name; empty for a suite
  std::string machine = "base";   ///< CLI short id (base, memlat, ...)
  std::string scheme = "bypass";  ///< CLI short id (bypass, victim, none)
  std::string csv_out;    ///< --csv-out path ("" = none)
  std::string jsonl_out;  ///< --jsonl-out path ("" = none)
  std::uint64_t machine_fp = 0;  ///< core::machine_fingerprint
  std::uint64_t stream_fp = 0;   ///< core::stream_fingerprint
};

/// Journal format version; part of the RunId and checked before it, so a
/// run dir in another format is refused by name instead of mis-resumed.
/// Format 2 dropped the header's tape-reuse flag.
inline constexpr std::uint32_t kRunFormatVersion = 2;

/// 16-hex-digit content fingerprint of the spec.
std::string run_id(const RunSpec& spec);

/// The spec as the run's journal header record (type "run").
JournalRecord to_record(const RunSpec& spec);

/// Rebuild a spec from a journal header; nullopt if `rec` is not a "run"
/// record, is in another journal format, or its embedded id does not match
/// the recomputed one. `why` (optional) then receives the reason, e.g.
/// "run directory uses journal format 1; this build reads format 2".
std::optional<RunSpec> from_record(const JournalRecord& rec,
                                   std::string* why = nullptr);

}  // namespace selcache::run
