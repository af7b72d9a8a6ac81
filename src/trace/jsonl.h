// JSONL serialization of a Recording — one self-describing JSON object per
// line, so phase profiles stream into jq / pandas without a schema file.
//
// Formatting is fully deterministic: counters are integers, map iteration
// is lexicographic (StatSet is an ordered map), and lines follow recording
// order. The parallel sweep concatenates per-task serializations in fixed
// task order, which is what makes `suite --trace-dir` bit-identical across
// thread counts.
#pragma once

#include <string>

#include "trace/recording.h"

namespace selcache::trace {

/// Identifies which simulation a line came from when recordings are merged.
struct SimTag {
  std::string workload;
  std::string version;
};

/// One line per Event:
///   {"workload":"Swim","version":"selective","kind":"toggle","epoch":3,
///    "access":31200,"on":true,"region":2}
/// Memory-side kinds carry "addr" and "level" instead of "on"/"region".
std::string events_jsonl(const Recording& rec, const SimTag& tag);

/// One line per EpochRecord:
///   {"workload":"Swim","version":"selective","epoch":3,"start":30000,
///    "end":40000,"metrics":{"l1d.hits":9120,...}}
/// All metric values are per-epoch deltas (cumulative counters are
/// difference-encoded by the Recorder).
std::string metrics_jsonl(const Recording& rec, const SimTag& tag);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& s);

}  // namespace selcache::trace
