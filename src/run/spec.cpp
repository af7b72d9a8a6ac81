#include "run/spec.h"

#include <cstdio>
#include <utility>

#include "support/fingerprint.h"

namespace selcache::run {

namespace {

std::uint64_t spec_fingerprint(const RunSpec& spec) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_u64(h, kRunFormatVersion);
  h = fnv1a_str(h, spec.kind);
  h = fnv1a_str(h, spec.workload);
  h = fnv1a_str(h, spec.machine);
  h = fnv1a_str(h, spec.scheme);
  // Output paths are NOT part of the identity: the same run written to a
  // different CSV path is still the same run. Only inputs that change the
  // simulated bytes participate.
  h = fnv1a_u64(h, spec.machine_fp);
  h = fnv1a_u64(h, spec.stream_fp);
  return h;
}

}  // namespace

std::string run_id(const RunSpec& spec) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(spec_fingerprint(spec)));
  return buf;
}

JournalRecord to_record(const RunSpec& spec) {
  JournalRecord rec("run");
  rec.add("id", run_id(spec))
      .add("format", static_cast<std::uint64_t>(kRunFormatVersion))
      .add("kind", spec.kind)
      .add("workload", spec.workload)
      .add("machine", spec.machine)
      .add("scheme", spec.scheme)
      .add("csv_out", spec.csv_out)
      .add("jsonl_out", spec.jsonl_out)
      .add("machine_fp", spec.machine_fp)
      .add("stream_fp", spec.stream_fp);
  return rec;
}

std::optional<RunSpec> from_record(const JournalRecord& rec,
                                   std::string* why) {
  const auto fail = [why](std::string reason) -> std::optional<RunSpec> {
    if (why != nullptr) *why = std::move(reason);
    return std::nullopt;
  };
  if (rec.type != "run")
    return fail("journal header is missing or fails its id check");
  // The format goes first: another format's header fails the id check too,
  // and naming both formats says why.
  const std::uint64_t format = rec.get_u64("format");
  if (format != kRunFormatVersion)
    return fail("run directory uses journal format " +
                std::to_string(format) + "; this build reads format " +
                std::to_string(kRunFormatVersion));
  RunSpec spec;
  spec.kind = rec.get("kind");
  spec.workload = rec.get("workload");
  spec.machine = rec.get("machine", "base");
  spec.scheme = rec.get("scheme", "bypass");
  spec.csv_out = rec.get("csv_out");
  spec.jsonl_out = rec.get("jsonl_out");
  spec.machine_fp = rec.get_u64("machine_fp");
  spec.stream_fp = rec.get_u64("stream_fp");
  // The embedded id must match the recomputed one: a hand-edited header is
  // rejected, not resumed.
  if (rec.get("id") != run_id(spec))
    return fail("journal header is missing or fails its id check");
  return spec;
}

}  // namespace selcache::run
