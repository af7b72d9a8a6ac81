// selcache — command-line driver for the simulator.
//
//   selcache list                               # workloads & machines
//   selcache run --workload Swim [--machine base] [--version selective]
//                [--scheme bypass] [--threshold 0.5] [--stats]
//   selcache sweep --workload Swim [--machine base] [--scheme bypass]
//   selcache suite [--machine base] [--scheme bypass] [--threads N]
//   selcache show --workload Swim [--optimized] [--marked]
//   selcache run-file PROGRAM.loop [--machine M] [--version V] [--scheme S]
//   selcache trace WORKLOAD VERSION [--machine M] [--scheme S] [--epoch N]
//                [--events-out FILE] [--metrics-out FILE] [--csv-out FILE]
//   selcache verify [FILE.loop] [--workload NAME] [--version V] [--csv]
//   selcache predict WORKLOAD VERSION [--machine M] [--csv] [--check]
//                [--predict-classify] [--threshold T] [--capacity-fraction F]
//   selcache predict-matrix [--machine M] [--workload NAME] [--csv]
//   selcache faultsim WORKLOAD VERSION [--fault-kind K] [--fault-rate R]
//                [--fault-seed N] [--rates R1,R2,..] [--fault-budget N]
//                [--integrity-checks] [--watchdog-accesses N] [--stats]
//   selcache store ACTION --store DIR [--max-bytes N]   # stats | ls | gc
//   selcache resume RUN_DIR [--threads N] [--status]
//
// sweep/suite accept --store DIR (persistent result store: cells hit on
// disk skip simulation entirely), --store-readonly, --store-clear. Store
// accounting prints to stderr so stdout stays byte-identical cold vs warm.
// Traced (--trace-dir) and resilient (--inject-faults, --watchdog-accesses)
// sweeps never touch a store, so they refuse the store flags.
//
// sweep/suite accept --run-dir DIR: the run becomes crash-safe and
// checkpointed (write-ahead journal + per-cell result store in DIR). A run
// killed at any point — SIGKILL included — is picked up by `selcache
// resume DIR`, whose output is byte-identical to an uninterrupted run at
// any --threads. SIGINT/SIGTERM suspend gracefully: running units finish
// and no other starts (exit 130/143); --deadline-ms suspends the same way
// when the wall-clock budget expires (exit 124). --run-dir is mutually
// exclusive with fault injection, tracing, and an external --store (the
// run directory has its own store and ledger).
//
// Exit code 0 on success, 1 when verification reports diagnostics or a
// single faultsim run dies to an injected fault, 2 on usage errors
// (including missing/unreadable/malformed input files — every file-handling
// path prints a one-line diagnostic instead of letting an exception
// escape), 124 when a checkpointed run suspends on its --deadline-ms,
// 128+signo after a graceful signal suspension. Unknown subcommands and
// malformed flags get a one-line diagnostic on stderr.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analysis/marker_elimination.h"
#include <fstream>

#include "core/report.h"
#include "core/runner.h"
#include "ir/parser.h"
#include "locality/crosscheck.h"
#include "locality/format.h"
#include "locality/predictor.h"
#include "ir/printer.h"
#include "run/checkpoint.h"
#include "store/store.h"
#include "support/io.h"
#include "support/signal_guard.h"
#include "support/table.h"
#include "trace/jsonl.h"
#include "trace/timeline.h"
#include "transform/pipeline.h"
#include "verify/verifier.h"

using namespace selcache;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  selcache list\n"
               "  selcache run   --workload NAME [--machine M] [--version V]"
               " [--scheme S] [--threshold T] [--stats]\n"
               "  selcache sweep --workload NAME [--machine M] [--scheme S]"
               " [--threads N]\n"
               "                 [--trace-dir DIR] [--epoch N]\n"
               "                 [--store DIR] [--store-readonly]"
               " [--store-clear]\n"
               "                 [--run-dir DIR] [--deadline-ms N]"
               " [--csv-out F] [--jsonl-out F]\n"
               "  selcache suite [--machine M] [--scheme S] [--threads N]"
               " [--verify-pipeline] [--trace-dir DIR] [--epoch N]\n"
               "                 [--store DIR] [--store-readonly]"
               " [--store-clear]\n"
               "                 [--run-dir DIR] [--deadline-ms N]"
               " [--csv-out F] [--jsonl-out F]\n"
               "  selcache store ACTION --store DIR [--max-bytes N]"
               "   # ACTION: stats ls gc\n"
               "  selcache resume RUN_DIR [--threads N] [--deadline-ms N]"
               " [--status]\n"
               "  selcache show  --workload NAME [--optimized] [--marked]\n"
               "  selcache run-file FILE.loop [--machine M] [--version V]"
               " [--scheme S]\n"
               "  selcache trace WORKLOAD VERSION [--machine M] [--scheme S]"
               " [--epoch N]\n"
               "                 [--events-out F] [--metrics-out F]"
               " [--csv-out F]\n"
               "  selcache verify [FILE.loop] [--workload NAME] [--version V]"
               " [--csv]\n"
               "  selcache predict WORKLOAD VERSION [--machine M] [--csv]"
               " [--check]\n"
               "                 [--predict-classify] [--threshold T]"
               " [--capacity-fraction F]\n"
               "  selcache predict-matrix [--machine M] [--workload NAME]"
               " [--csv]\n"
               "  selcache faultsim WORKLOAD VERSION [--machine M]"
               " [--scheme S] [--fault-kind K]\n"
               "                 [--fault-rate R] [--fault-seed N]"
               " [--rates R1,R2,..]\n"
               "                 [--fault-budget N] [--integrity-checks]"
               " [--watchdog-accesses N] [--stats]\n"
               "  sweep/suite fault flags: --inject-faults --fault-kind K"
               " --fault-rate R --fault-seed N\n"
               "                 --max-retries N --watchdog-accesses N"
               " --fault-budget N --integrity-checks\n"
               "                 --failures-out F.csv --failures-jsonl F\n"
               "machines: base memlat l2size l1size l2assoc l1assoc\n"
               "versions: base purehw puresw combined selective\n"
               "schemes:  bypass victim none\n"
               "faults:   counter-flip counter-reset toggle-drop toggle-dup"
               " toggle-reorder entry-invalidate task-crash\n");
  return 2;
}

/// Per-command flag allowlist: anything else is a malformed invocation and
/// gets a one-line diagnostic instead of the full usage dump.
struct CommandSpec {
  const char* name;
  std::set<std::string> value_flags;
  std::set<std::string> bool_flags;
};

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start,
                                               const CommandSpec& spec,
                                               bool* ok) {
  std::map<std::string, std::string> flags;
  *ok = true;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "selcache: unexpected argument '%s' for '%s'\n",
                   arg.c_str(), spec.name);
      *ok = false;
      return flags;
    }
    const std::string a = arg.substr(2);
    if (spec.bool_flags.count(a)) {
      flags[a] = "1";
    } else if (spec.value_flags.count(a)) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "selcache: flag '--%s' expects a value\n",
                     a.c_str());
        *ok = false;
        return flags;
      }
      flags[a] = argv[++i];
    } else {
      std::fprintf(stderr, "selcache: unknown flag '--%s' for '%s'\n",
                   a.c_str(), spec.name);
      *ok = false;
      return flags;
    }
  }
  return flags;
}

/// Strict base-10 unsigned parse: whole string, no sign, no overflow.
/// (std::stoull would accept "  12x" prefixes via stol semantics and throw
/// out_of_range on huge digit strings — both have bitten CLI paths before.)
bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Strict finite-double parse: whole string, no trailing junk.
bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Parse an optional unsigned-integer flag; absent leaves `out` untouched.
/// Returns false after a one-line diagnostic on a malformed value.
bool parse_u64_flag(const std::map<std::string, std::string>& flags,
                    const char* name, std::uint64_t* out,
                    bool require_positive = false) {
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  std::uint64_t v = 0;
  if (!parse_u64(it->second, &v) || (require_positive && v == 0)) {
    std::fprintf(stderr,
                 "selcache: flag '--%s' expects a %s integer, got '%s'\n",
                 name, require_positive ? "positive" : "non-negative",
                 it->second.c_str());
    return false;
  }
  *out = v;
  return true;
}

std::optional<core::MachineConfig> machine_by_name(const std::string& n) {
  return core::machine_by_name(n);
}

std::optional<core::Version> version_by_name(const std::string& n) {
  if (n.empty() || n == "base") return core::Version::Base;
  if (n == "purehw") return core::Version::PureHardware;
  if (n == "puresw") return core::Version::PureSoftware;
  if (n == "combined") return core::Version::Combined;
  if (n == "selective") return core::Version::Selective;
  return std::nullopt;
}

const workloads::WorkloadInfo* workload_by_name(const std::string& n) {
  for (const auto& w : workloads::all_workloads())
    if (w.name == n) return &w;
  return nullptr;
}

int cmd_list() {
  std::printf("workloads (13, Table 2 order):\n");
  for (const auto& w : workloads::all_workloads())
    std::printf("  %-10s %-9s (paper: %.1fM instr, L1 %.2f%%, L2 %.2f%%)\n",
                w.name.c_str(), to_string(w.category),
                w.paper_instructions_m, w.paper_l1_miss, w.paper_l2_miss);
  std::printf("machines: base memlat l2size l1size l2assoc l1assoc\n");
  std::printf("versions: base purehw puresw combined selective\n");
  std::printf("schemes:  bypass victim none\n");
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const auto* w = workload_by_name(flags.count("workload")
                                       ? flags.at("workload")
                                       : "");
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  const auto version =
      version_by_name(flags.count("version") ? flags.at("version") : "");
  const auto scheme =
      hw::scheme_by_name(flags.count("scheme") ? flags.at("scheme") : "");
  if (w == nullptr || !machine || !version || !scheme) return usage();

  core::RunOptions opt;
  opt.scheme = *scheme;
  if (flags.count("threshold") &&
      !parse_double(flags.at("threshold"), &opt.optimize.threshold)) {
    std::fprintf(stderr,
                 "selcache: flag '--threshold' expects a number, got '%s'\n",
                 flags.at("threshold").c_str());
    return 2;
  }

  const core::RunResult r = core::run_version(*w, *machine, *version, opt);
  std::printf("%s / %s / %s / %s\n", w->name.c_str(),
              machine->name.c_str(), to_string(*version),
              hw::to_string(*scheme));
  std::printf("  cycles        %llu\n",
              static_cast<unsigned long long>(r.cycles));
  std::printf("  instructions  %llu\n",
              static_cast<unsigned long long>(r.instructions));
  std::printf("  L1 miss       %.2f%%\n", 100.0 * r.l1_miss_rate);
  std::printf("  L2 miss       %.2f%%\n", 100.0 * r.l2_miss_rate);
  std::printf("  toggles       %llu\n",
              static_cast<unsigned long long>(r.toggles));
  if (flags.count("stats"))
    for (const auto& [k, v] : r.stats.all())
      std::printf("  %-32s %llu\n", k.c_str(),
                  static_cast<unsigned long long>(v));
  return 0;
}

/// Parse --epoch into `out` (positive integer). Returns false (after a
/// diagnostic) on a malformed value; leaves `out` untouched when absent.
bool parse_epoch_flag(const std::map<std::string, std::string>& flags,
                      std::uint64_t* out) {
  return parse_u64_flag(flags, "epoch", out, /*require_positive=*/true);
}

/// `selcache trace WORKLOAD VERSION` — run one traced simulation and render
/// its phase timeline; optionally serialize events/metrics/CSV to files.
int cmd_trace(const std::string& wname, const std::string& vname,
              const std::map<std::string, std::string>& flags) {
  const auto* w = workload_by_name(wname);
  if (w == nullptr) {
    std::fprintf(stderr, "selcache: unknown workload '%s'\n", wname.c_str());
    return 2;
  }
  const auto version = version_by_name(vname);
  if (!version) {
    std::fprintf(stderr, "selcache: unknown version '%s'\n", vname.c_str());
    return 2;
  }
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  const auto scheme =
      hw::scheme_by_name(flags.count("scheme") ? flags.at("scheme") : "");
  if (!machine || !scheme) return usage();

  core::RunOptions opt;
  opt.scheme = *scheme;
  if (!parse_epoch_flag(flags, &opt.trace_epoch)) return 2;

  trace::Recording recording;
  const core::RunResult r =
      core::run_version(*w, *machine, *version, opt, &recording);

  const trace::SimTag tag{w->name, core::version_key(*version)};
  if (flags.count("events-out") &&
      !core::write_text_file(flags.at("events-out"),
                             trace::events_jsonl(recording, tag))) {
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 flags.at("events-out").c_str());
    return 2;
  }
  if (flags.count("metrics-out") &&
      !core::write_text_file(flags.at("metrics-out"),
                             trace::metrics_jsonl(recording, tag))) {
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 flags.at("metrics-out").c_str());
    return 2;
  }
  const auto rows = trace::build_timeline(recording);
  if (flags.count("csv-out") &&
      !core::write_text_file(flags.at("csv-out"),
                             trace::timeline_csv_header() +
                                 trace::timeline_csv(rows, tag.workload,
                                                     tag.version))) {
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 flags.at("csv-out").c_str());
    return 2;
  }

  std::printf("%s", trace::timeline_table(w->name + " / " + tag.version +
                                              " (" + machine->name + ", " +
                                              hw::to_string(*scheme) + ")",
                                          rows)
                        .c_str());
  std::printf("%zu epochs (length %llu), %zu events, %llu cycles\n",
              recording.epochs.size(),
              static_cast<unsigned long long>(opt.trace_epoch),
              recording.events.size(),
              static_cast<unsigned long long>(r.cycles));
  return 0;
}

/// Serialize a batch of trace captures into DIR/{events.jsonl,
/// metrics.jsonl, timeline.csv}. Captures must already be in fixed
/// (workload, version) order — concatenation preserves it, which keeps the
/// files bit-identical across thread counts. Each capture's text goes to
/// the three files as it is serialized, and its Recording is freed then;
/// each file still replaces its target all or nothing, in that order.
int write_trace_dir(std::vector<core::TraceCapture>& traces,
                    const std::string& dir_flag) {
  const std::filesystem::path dir = dir_flag;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "selcache: cannot create directory %s: %s\n",
                 dir.string().c_str(), ec.message().c_str());
    return 2;
  }
  const char* const names[] = {"events.jsonl", "metrics.jsonl",
                               "timeline.csv"};
  support::AtomicFile events((dir / names[0]).string());
  support::AtomicFile metrics((dir / names[1]).string());
  support::AtomicFile csv((dir / names[2]).string());
  csv.append(trace::timeline_csv_header());
  for (core::TraceCapture& c : traces) {
    const trace::SimTag tag{c.workload, core::version_key(c.version)};
    events.append(trace::events_jsonl(c.recording, tag));
    metrics.append(trace::metrics_jsonl(c.recording, tag));
    csv.append(trace::timeline_csv(trace::build_timeline(c.recording),
                                   tag.workload, tag.version));
    c.recording = {};
  }
  support::AtomicFile* const files[] = {&events, &metrics, &csv};
  for (std::size_t i = 0; i < 3; ++i) {
    if (files[i]->commit().ok()) continue;
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 (dir / names[i]).string().c_str());
    return 2;
  }
  std::printf("phase traces: %zu recordings -> %s\n", traces.size(),
              dir.string().c_str());
  return 0;
}

/// Parse --threads into `threads` (non-negative integer). Returns false
/// after a diagnostic on a malformed value.
bool parse_threads_flag(const std::map<std::string, std::string>& flags,
                        unsigned* threads) {
  std::uint64_t t = *threads;
  if (!parse_u64_flag(flags, "threads", &t)) return false;
  if (t > 4096) {
    std::fprintf(stderr,
                 "selcache: flag '--threads' out of range (max 4096), "
                 "got '%s'\n",
                 flags.at("threads").c_str());
    return false;
  }
  *threads = static_cast<unsigned>(t);
  return true;
}

/// Parse the fault-campaign flags shared by faultsim and sweep/suite into
/// a FaultConfig + DegradePolicy + watchdog. Returns false after a one-line
/// diagnostic.
bool parse_fault_common(const std::map<std::string, std::string>& flags,
                        fault::FaultConfig* cfg, hw::DegradePolicy* degrade,
                        std::uint64_t* watchdog) {
  if (flags.count("fault-kind")) {
    const auto k = fault::fault_kind_by_name(flags.at("fault-kind"));
    if (!k) {
      std::fprintf(stderr,
                   "selcache: unknown fault kind '%s' (kinds: counter-flip"
                   " counter-reset toggle-drop toggle-dup toggle-reorder"
                   " entry-invalidate task-crash)\n",
                   flags.at("fault-kind").c_str());
      return false;
    }
    cfg->kind = *k;
    cfg->rate = 0.1;  // sensible default; --fault-rate overrides
  }
  if (flags.count("fault-rate")) {
    if (!parse_double(flags.at("fault-rate"), &cfg->rate) || cfg->rate < 0.0 ||
        cfg->rate > 1.0) {
      std::fprintf(stderr,
                   "selcache: flag '--fault-rate' expects a probability in"
                   " [0,1], got '%s'\n",
                   flags.at("fault-rate").c_str());
      return false;
    }
  }
  if (!parse_u64_flag(flags, "fault-seed", &cfg->seed)) return false;
  if (!parse_u64_flag(flags, "fault-budget", &degrade->fault_budget))
    return false;
  if (flags.count("integrity-checks")) degrade->integrity_checks = true;
  if (!parse_u64_flag(flags, "watchdog-accesses", watchdog)) return false;
  return true;
}

/// Parse the sweep/suite resilience flags. `*active` comes back true when
/// the resilient engine should run (--inject-faults, or a watchdog alone);
/// only then does the campaign reach `opt`, and the flags that only that
/// engine reads are refused without it.
bool parse_sweep_fault_flags(const std::map<std::string, std::string>& flags,
                             core::RunOptions* opt, std::uint32_t* max_retries,
                             bool* active) {
  core::RunOptions campaign;
  if (!parse_fault_common(flags, &campaign.fault, &campaign.degrade,
                          &campaign.watchdog_accesses))
    return false;
  std::uint64_t retries = *max_retries;
  if (!parse_u64_flag(flags, "max-retries", &retries)) return false;
  if (retries > 100) {
    std::fprintf(stderr,
                 "selcache: flag '--max-retries' out of range (max 100)\n");
    return false;
  }
  *max_retries = static_cast<std::uint32_t>(retries);
  const bool inject = flags.count("inject-faults") > 0;
  if (!inject && campaign.fault.kind != fault::FaultKind::None) {
    std::fprintf(stderr,
                 "selcache: fault flags require '--inject-faults'\n");
    return false;
  }
  if (inject && campaign.fault.kind == fault::FaultKind::None) {
    std::fprintf(stderr,
                 "selcache: '--inject-faults' requires '--fault-kind'\n");
    return false;
  }
  if (!inject && flags.count("fault-rate")) {
    std::fprintf(stderr,
                 "selcache: flag '--fault-rate' requires '--inject-faults'\n");
    return false;
  }
  *active = inject || campaign.watchdog_accesses > 0;
  // A watchdog alone still derives the report's per-attempt seeds from
  // --fault-seed.
  for (const char* f : {"fault-seed", "max-retries", "fault-budget",
                        "integrity-checks", "failures-out", "failures-jsonl"}) {
    if (!*active && flags.count(f)) {
      std::fprintf(stderr,
                   "selcache: flag '--%s' requires '--inject-faults' or"
                   " '--watchdog-accesses'\n",
                   f);
      return false;
    }
  }
  if (*active) {
    opt->fault = campaign.fault;
    opt->watchdog_accesses = campaign.watchdog_accesses;
    opt->degrade = campaign.degrade;
  }
  return true;
}

/// Print the per-cell outcome ledger of a resilient sweep and serialize it
/// where asked. Failed cells do NOT fail the process — quarantining them is
/// the point — so this only returns nonzero on I/O errors.
int emit_failure_report(const fault::FailureReport& report,
                        const std::map<std::string, std::string>& flags) {
  std::printf("fault report: %zu cells, %zu degraded, %zu failed\n",
              report.cells.size(), report.degraded_cells(),
              report.failed_cells());
  std::printf("%s", report.table().c_str());
  if (flags.count("failures-out") &&
      !core::write_text_file(flags.at("failures-out"), report.csv())) {
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 flags.at("failures-out").c_str());
    return 2;
  }
  if (flags.count("failures-jsonl") &&
      !core::write_text_file(flags.at("failures-jsonl"), report.jsonl())) {
    std::fprintf(stderr, "selcache: cannot write %s\n",
                 flags.at("failures-jsonl").c_str());
    return 2;
  }
  return 0;
}

/// `selcache faultsim WORKLOAD VERSION` — run one simulation under a fault
/// campaign and report how far it degraded; with --rates, sweep the rate
/// axis and print one degradation row per rate (the EXPERIMENTS table).
int cmd_faultsim(const std::string& wname, const std::string& vname,
                 const std::map<std::string, std::string>& flags) {
  const auto* w = workload_by_name(wname);
  if (w == nullptr) {
    std::fprintf(stderr, "selcache: unknown workload '%s'\n", wname.c_str());
    return 2;
  }
  const auto version = version_by_name(vname);
  if (!version) {
    std::fprintf(stderr, "selcache: unknown version '%s'\n", vname.c_str());
    return 2;
  }
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  const auto scheme =
      hw::scheme_by_name(flags.count("scheme") ? flags.at("scheme") : "");
  if (!machine || !scheme) return usage();

  core::RunOptions opt;
  opt.scheme = *scheme;
  if (!parse_fault_common(flags, &opt.fault, &opt.degrade,
                          &opt.watchdog_accesses))
    return 2;
  if (opt.fault.kind == fault::FaultKind::None &&
      opt.watchdog_accesses == 0) {
    std::fprintf(stderr,
                 "selcache: 'faultsim' expects '--fault-kind' (or"
                 " '--watchdog-accesses')\n");
    return 2;
  }

  if (flags.count("rates")) {
    // Rate sweep: same seed at every point, so the table is reproducible
    // and each point differs only by the Bernoulli threshold.
    std::vector<double> rates;
    std::string list = flags.at("rates");
    for (std::size_t pos = 0; pos <= list.size();) {
      const std::size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      double r = 0.0;
      if (!parse_double(item, &r) || r < 0.0 || r > 1.0) {
        std::fprintf(stderr,
                     "selcache: flag '--rates' expects comma-separated"
                     " probabilities in [0,1], got '%s'\n",
                     item.c_str());
        return 2;
      }
      rates.push_back(r);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    TextTable t({"rate", "cycles", "L1 miss%", "toggles", "injected",
                 "degradations", "status"});
    for (double rate : rates) {
      opt.fault.rate = rate;
      try {
        const core::RunResult r =
            core::run_version(*w, *machine, *version, opt);
        t.add_row({TextTable::num(rate, 4),
                   std::to_string(static_cast<unsigned long long>(r.cycles)),
                   TextTable::num(100.0 * r.l1_miss_rate),
                   std::to_string(r.toggles),
                   std::to_string(r.faults_injected),
                   std::to_string(r.degradations),
                   r.degradations > 0 ? "degraded" : "ok"});
      } catch (const std::exception& e) {
        t.add_row({TextTable::num(rate, 4), "-", "-", "-", "-", "-",
                   std::string("failed: ") + e.what()});
      }
    }
    std::printf("%s / %s / %s faults (seed %llu)\n%s", w->name.c_str(),
                vname.c_str(), fault::to_string(opt.fault.kind),
                static_cast<unsigned long long>(opt.fault.seed),
                t.str().c_str());
    return 0;
  }

  try {
    const core::RunResult r = core::run_version(*w, *machine, *version, opt);
    std::printf("%s / %s / %s / %s faults (rate %g, seed %llu)\n",
                w->name.c_str(), vname.c_str(), hw::to_string(*scheme),
                fault::to_string(opt.fault.kind), opt.fault.rate,
                static_cast<unsigned long long>(opt.fault.seed));
    std::printf("  cycles        %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  L1 miss       %.2f%%   L2 miss %.2f%%\n",
                100.0 * r.l1_miss_rate, 100.0 * r.l2_miss_rate);
    std::printf("  toggles       %llu\n",
                static_cast<unsigned long long>(r.toggles));
    std::printf("  faults        %llu injected, %llu degradation%s%s\n",
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.degradations),
                r.degradations == 1 ? "" : "s",
                r.degradations > 0 ? " (safe mode)" : "");
    if (flags.count("stats"))
      for (const auto& [k, v] : r.stats.all())
        std::printf("  %-32s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selcache: faultsim run failed: %s\n", e.what());
    return 1;
  }
}

/// Open the persistent result store requested by --store/--store-readonly/
/// --store-clear into `opt`. Returns the owning handle (nullptr when no
/// store was requested); sets *ok=false after a one-line diagnostic on
/// misuse or an un-creatable directory.
std::unique_ptr<store::ResultStore> open_store_flags(
    const std::map<std::string, std::string>& flags, core::RunOptions* opt,
    bool* ok) {
  *ok = true;
  const bool read_only = flags.count("store-readonly") > 0;
  const bool clear = flags.count("store-clear") > 0;
  if (!flags.count("store")) {
    if (read_only || clear) {
      std::fprintf(stderr,
                   "selcache: '--store-readonly'/'--store-clear' require"
                   " '--store DIR'\n");
      *ok = false;
    }
    return nullptr;
  }
  if (read_only && clear) {
    std::fprintf(stderr,
                 "selcache: '--store-readonly' and '--store-clear' are"
                 " mutually exclusive\n");
    *ok = false;
    return nullptr;
  }
  try {
    auto s = std::make_unique<store::ResultStore>(
        flags.at("store"), store::ResultStore::Options{.read_only = read_only});
    if (clear) s->clear();
    opt->result_store = s.get();
    return s;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selcache: %s\n", e.what());
    *ok = false;
    return nullptr;
  }
}

/// Report the store's hit/miss ledger. Accounting goes to stderr: stdout
/// must stay byte-identical between a cold and a warm run.
void finish_store(const store::ResultStore* s) {
  if (s != nullptr) std::fprintf(stderr, "%s\n", s->summary().c_str());
}

/// `selcache store ACTION --store DIR` — inspect or prune a store.
int cmd_store(const std::string& action,
              const std::map<std::string, std::string>& flags) {
  if (!flags.count("store")) {
    std::fprintf(stderr, "selcache: 'store' expects '--store DIR'\n");
    return 2;
  }
  std::optional<store::ResultStore> s;
  try {
    s.emplace(flags.at("store"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selcache: %s\n", e.what());
    return 2;
  }
  if (action == "stats") {
    std::uint64_t cells = 0, tapes = 0, bytes = 0;
    for (const auto& e : s->entries()) {
      bytes += e.bytes;
      (e.path.size() > 5 && e.path.rfind(".cell") == e.path.size() - 5
           ? cells
           : tapes)++;
    }
    std::printf("%s: %llu cells, %llu tapes, %llu bytes\n",
                s->dir().c_str(), static_cast<unsigned long long>(cells),
                static_cast<unsigned long long>(tapes),
                static_cast<unsigned long long>(bytes));
    return 0;
  }
  if (action == "ls") {
    for (const auto& e : s->entries())
      std::printf("%10llu  %s  %s\n",
                  static_cast<unsigned long long>(e.bytes),
                  std::filesystem::path(e.path).filename().string().c_str(),
                  e.key.empty() ? "<unreadable>" : e.key.c_str());
    return 0;
  }
  if (action == "gc") {
    if (!flags.count("max-bytes")) {
      std::fprintf(stderr, "selcache: 'store gc' expects '--max-bytes N'\n");
      return 2;
    }
    std::uint64_t max_bytes = 0;
    if (!parse_u64_flag(flags, "max-bytes", &max_bytes)) return 2;
    const std::size_t removed = s->gc(max_bytes);
    std::printf("gc: removed %zu files, %llu bytes remain in %s\n", removed,
                static_cast<unsigned long long>(s->total_bytes()),
                s->dir().c_str());
    return 0;
  }
  std::fprintf(stderr,
               "selcache: unknown store action '%s' (actions: stats ls"
               " gc)\n",
               action.c_str());
  return 2;
}

/// A sweep's stdout: the figure table for a suite, or the one workload's
/// header line plus its four evaluated versions. Shared by the plain,
/// resilient, and checkpointed paths so a resumed run is byte-identical to
/// an uninterrupted one.
void print_rows(bool suite, const std::vector<core::ImprovementRow>& rows,
                const std::string& machine_name, hw::SchemeKind scheme) {
  if (suite) {
    std::printf("%s", core::format_figure(machine_name + " (" +
                                              hw::to_string(scheme) + ")",
                                          rows)
                          .c_str());
    return;
  }
  const core::ImprovementRow& row = rows.front();
  std::printf("%s on %s (%s scheme): base %llu cycles\n", row.benchmark.c_str(),
              machine_name.c_str(), hw::to_string(scheme),
              static_cast<unsigned long long>(row.base_cycles));
  for (core::Version v : core::kEvaluatedVersions)
    std::printf("  %-14s %+7.2f%%\n", to_string(v), row.pct.at(v));
}

/// Write the figure rows to --csv-out / --jsonl-out when asked (atomic
/// writes; same serializers for fresh and resumed runs).
int emit_figure_files(const std::vector<core::ImprovementRow>& rows,
                      const std::string& csv_out,
                      const std::string& jsonl_out) {
  if (!csv_out.empty() &&
      !core::write_text_file(csv_out, core::figure_csv(rows))) {
    std::fprintf(stderr, "selcache: cannot write %s\n", csv_out.c_str());
    return 2;
  }
  if (!jsonl_out.empty() &&
      !core::write_text_file(jsonl_out, core::figure_jsonl(rows))) {
    std::fprintf(stderr, "selcache: cannot write %s\n", jsonl_out.c_str());
    return 2;
  }
  return 0;
}

/// Report a checkpointed run's outcome: print the figure for a completed
/// run (byte-identical to the uncheckpointed path), a resume hint for a
/// suspended one. Accounting goes to stderr, mirroring the store rule.
int finish_checkpoint(const std::string& run_dir, const run::RunSpec& spec,
                      const run::CheckpointOutcome& out) {
  if (!out.error.empty()) {
    std::fprintf(stderr, "selcache: %s\n", out.error.c_str());
    return 2;
  }
  if (out.suspended) {
    const std::uint64_t settled =
        out.cells_done + out.cells_from_store + out.cells_quarantined;
    std::fprintf(stderr,
                 "selcache: run %s suspended (%llu/%zu cells settled);"
                 " resume with 'selcache resume %s'\n",
                 out.id.c_str(), static_cast<unsigned long long>(settled),
                 out.cells.size(), run_dir.c_str());
    // A recorded signal gets its conventional code; otherwise the
    // suspension came from --deadline-ms (the `timeout` convention).
    const int sig = support::SignalGuard::exit_code();
    return sig != 0 ? sig : 124;
  }

  const auto machine = core::machine_by_name(spec.machine);
  const auto scheme = hw::scheme_by_name(spec.scheme);
  if (!machine || !scheme || out.rows.empty()) {
    std::fprintf(stderr, "selcache: run %s produced no result\n",
                 out.id.c_str());
    return 2;
  }
  print_rows(spec.kind == "suite", out.rows, machine->name, *scheme);
  const int rc = emit_figure_files(out.rows, spec.csv_out, spec.jsonl_out);
  if (rc != 0) return rc;
  std::fprintf(stderr,
               "run %s: %llu cells simulated, %llu from ledger, %llu"
               " quarantined -> %s\n",
               out.id.c_str(),
               static_cast<unsigned long long>(out.cells_done),
               static_cast<unsigned long long>(out.cells_from_store),
               static_cast<unsigned long long>(out.cells_quarantined),
               run_dir.c_str());
  return 0;
}

/// The checkpointed execution path behind `sweep/suite --run-dir`.
/// `w` is null for a suite; `opt` and `threads` carry the parsed flags.
int cmd_checkpointed(const std::string& kind,
                     const workloads::WorkloadInfo* w,
                     const core::MachineConfig& machine,
                     const core::RunOptions& opt, unsigned threads,
                     const std::map<std::string, std::string>& flags) {
  // The run directory owns its ledger and store; features that perturb
  // results (faults, watchdogs) or attach per-run sinks (tracing, an
  // external store) are incompatible by design.
  static const char* kIncompatible[] = {
      "inject-faults", "fault-kind",   "fault-rate",     "fault-seed",
      "fault-budget",  "integrity-checks", "watchdog-accesses",
      "max-retries",   "failures-out", "failures-jsonl", "trace-dir",
      "store",         "store-readonly", "store-clear"};
  for (const char* f : kIncompatible) {
    if (flags.count(f)) {
      std::fprintf(stderr,
                   "selcache: '--run-dir' is incompatible with '--%s'"
                   " (checkpointed runs own their store and ledger)\n",
                   f);
      return 2;
    }
  }

  run::RunSpec spec;
  spec.kind = kind;
  spec.workload = w != nullptr ? w->name : "";
  spec.machine = flags.count("machine") ? flags.at("machine") : "base";
  spec.scheme = flags.count("scheme") ? flags.at("scheme") : "bypass";
  if (flags.count("csv-out")) spec.csv_out = flags.at("csv-out");
  if (flags.count("jsonl-out")) spec.jsonl_out = flags.at("jsonl-out");
  spec.machine_fp = core::machine_fingerprint(machine);
  spec.stream_fp = core::stream_fingerprint(opt);

  run::CheckpointOptions copts;
  copts.threads = threads;
  if (!parse_u64_flag(flags, "deadline-ms", &copts.run_deadline_ms)) return 2;
  support::SignalGuard guard;
  copts.stop = support::SignalGuard::token();
  const run::CheckpointOutcome out =
      run::run_checkpointed(flags.at("run-dir"), spec, copts);
  return finish_checkpoint(flags.at("run-dir"), spec, out);
}

/// `selcache resume RUN_DIR` — pick a checkpointed run back up (or, with
/// --status, just report where it stands).
int cmd_resume(const std::string& run_dir,
               const std::map<std::string, std::string>& flags) {
  const run::RunStatus st = run::inspect_run(run_dir);
  if (!st.error.empty()) {
    std::fprintf(stderr, "selcache: %s\n", st.error.c_str());
    return 2;
  }
  if (flags.count("status")) {
    std::printf("run %s: %s%s%s machine=%s scheme=%s\n", st.id.c_str(),
                st.spec.kind.c_str(),
                st.spec.workload.empty() ? "" : " ",
                st.spec.workload.c_str(), st.spec.machine.c_str(),
                st.spec.scheme.c_str());
    std::size_t done = 0;
    for (const auto& c : st.cells) {
      if (c.status == "done") ++done;
      std::printf("  %-12s %-10s %-12s attempts=%u%s%s\n", c.workload.c_str(),
                  c.version.c_str(), c.status.c_str(), c.attempts,
                  c.reason.empty() ? "" : "  ", c.reason.c_str());
    }
    std::printf("state: %s (%zu/%zu cells done)%s\n",
                st.complete     ? "complete"
                : st.suspended  ? "suspended"
                                : "in progress",
                done, st.cells.size(),
                st.torn_tail ? "  [torn journal tail dropped]" : "");
    return 0;
  }

  run::CheckpointOptions copts;
  if (!parse_threads_flag(flags, &copts.threads) ||
      !parse_u64_flag(flags, "deadline-ms", &copts.run_deadline_ms))
    return 2;
  support::SignalGuard guard;
  copts.stop = support::SignalGuard::token();
  const run::CheckpointOutcome out = run::resume_checkpointed(run_dir, copts);
  return finish_checkpoint(run_dir, st.spec, out);
}

/// Run every requested (workload, version) product through the optimizer
/// with after-each-stage verification plus final structural / marker /
/// legality certification. Diagnostics accumulate into `master` with the
/// product name prefixed onto each location. Returns the product count.
std::size_t verify_matrix(const std::vector<const workloads::WorkloadInfo*>& ws,
                          const std::vector<core::Version>& vs,
                          verify::Report& master) {
  std::size_t products = 0;
  for (const auto* w : ws) {
    for (core::Version v : vs) {
      transform::TransformLog log;
      verify::Report report;
      transform::OptimizeOptions opt;
      verify::enable_pipeline_verification(opt, log, report);
      const ir::Program product = core::prepare_program(w->build(), v, opt);
      verify::verify_program(product, &log, report);
      ++products;
      for (const auto& d : report.diagnostics()) {
        master.set_pass(d.pass);
        master.add(d.severity, d.rule,
                   w->name + "/" + core::version_key(v) +
                       (d.location.empty() ? "" : "/" + d.location),
                   d.message);
      }
    }
  }
  return products;
}

/// `selcache sweep` (one workload) and `selcache suite` (all 13): every
/// flag is parsed here, once, and the plain, resilient (--inject-faults /
/// --watchdog-accesses) or checkpointed (--run-dir) engine runs the cells.
int cmd_sweep(const std::map<std::string, std::string>& flags, bool suite) {
  const auto* w = suite ? nullptr
                        : workload_by_name(flags.count("workload")
                                               ? flags.at("workload")
                                               : "");
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  const auto scheme =
      hw::scheme_by_name(flags.count("scheme") ? flags.at("scheme") : "");
  if ((!suite && w == nullptr) || !machine || !scheme) return usage();
  core::RunOptions opt;
  opt.scheme = *scheme;
  core::ParallelSweepOptions par;
  if (!parse_threads_flag(flags, &par.num_threads) ||
      !parse_epoch_flag(flags, &opt.trace_epoch))
    return 2;
  // A flag that only another flag's mode reads would be ignored alone.
  for (const auto& [flag, needs] :
       {std::pair{"deadline-ms", "run-dir"}, std::pair{"epoch", "trace-dir"}}) {
    if (flags.count(flag) && !flags.count(needs)) {
      std::fprintf(stderr, "selcache: flag '--%s' requires '--%s'\n", flag,
                   needs);
      return 2;
    }
  }
  if (flags.count("verify-pipeline")) {
    std::vector<const workloads::WorkloadInfo*> ws;
    for (const auto& wi : workloads::all_workloads()) ws.push_back(&wi);
    const std::vector<core::Version> vs(core::kAllVersions.begin(),
                                        core::kAllVersions.end());
    verify::Report master;
    const std::size_t products = verify_matrix(ws, vs, master);
    if (!master.empty()) {
      std::fprintf(stderr, "pipeline verification failed (%zu products):\n%s",
                   products, master.str().c_str());
      return 1;
    }
    std::printf("pipeline verification: %zu products clean\n", products);
  }
  if (flags.count("run-dir"))
    return cmd_checkpointed(suite ? "suite" : "sweep", w, *machine, opt,
                            par.num_threads, flags);
  std::uint32_t max_retries = 1;
  bool faulted = false;
  if (!parse_sweep_fault_flags(flags, &opt, &max_retries, &faulted)) return 2;
  // Traced and resilient sweeps neither read nor write the store: refuse its
  // flags before open_store_flags creates the directory.
  const bool tracing = flags.count("trace-dir") > 0;
  const char* storeless = tracing                         ? "trace-dir"
                          : flags.count("inject-faults") ? "inject-faults"
                          : faulted                       ? "watchdog-accesses"
                                                          : nullptr;
  for (const char* f : {"store", "store-readonly", "store-clear"}) {
    if (storeless != nullptr && flags.count(f)) {
      std::fprintf(stderr,
                   "selcache: '--%s' is incompatible with '--%s' (traced and"
                   " resilient sweeps neither read nor write the store)\n",
                   f, storeless);
      return 2;
    }
  }
  bool store_ok = true;
  const auto rstore = open_store_flags(flags, &opt, &store_ok);
  if (!store_ok) return 2;

  std::vector<core::TraceCapture> traces;
  std::vector<core::TraceCapture>* const tr = tracing ? &traces : nullptr;
  std::vector<core::ImprovementRow> rows;
  std::optional<fault::FailureReport> report;
  if (faulted) {
    core::ResilientSweep rs = core::sweep_resilient(
        suite ? std::span(workloads::all_workloads()) : std::span(w, 1),
        *machine, opt, par, max_retries, tr);
    rows = std::move(rs.rows);
    report = std::move(rs.report);
  } else if (suite) {
    rows = core::sweep_suite(*machine, opt, par, tr);
  } else {
    rows = {core::improvements_for(*w, *machine, opt, par, tr)};
  }
  print_rows(suite, rows, machine->name, *scheme);
  // Flush ordering is deterministic: traces first, then the failure
  // ledger — a ledger row must never exist without the trace data it
  // points at. Both are attempted even if the first fails; the first
  // error wins.
  int rc = tracing ? write_trace_dir(traces, flags.at("trace-dir")) : 0;
  if (report) {
    const int frc = emit_failure_report(*report, flags);
    if (rc == 0) rc = frc;
  }
  finish_store(rstore.get());
  const int erc = emit_figure_files(
      rows, flags.count("csv-out") ? flags.at("csv-out") : "",
      flags.count("jsonl-out") ? flags.at("jsonl-out") : "");
  return rc != 0 ? rc : erc;
}

int cmd_show(const std::map<std::string, std::string>& flags) {
  const auto* w = workload_by_name(flags.count("workload")
                                       ? flags.at("workload")
                                       : "");
  if (w == nullptr) return usage();
  ir::Program p = w->build();
  if (flags.count("optimized") || flags.count("marked")) {
    transform::OptimizeOptions opt;
    opt.insert_markers = flags.count("marked") > 0;
    transform::optimize_program(p, opt);
  }
  std::printf("%s", ir::print(p).c_str());
  return 0;
}

/// `selcache verify` — static certification without simulating anything.
/// With FILE.loop: parse and verify that program (as-is, or one pipeline
/// product when --version is given). Without: sweep the workload matrix,
/// optionally narrowed by --workload / --version. Exit 1 on diagnostics.
int cmd_verify(const std::string& file,
               const std::map<std::string, std::string>& flags) {
  verify::Report master;
  std::size_t products = 0;

  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "selcache: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string src = text.str();
    std::optional<ir::Program> parsed;
    try {
      parsed.emplace(ir::parse_program(src));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "selcache: cannot parse %s: %s\n", file.c_str(),
                   e.what());
      return 2;
    }
    if (flags.count("version")) {
      const auto version = version_by_name(flags.at("version"));
      if (!version) return usage();
      const workloads::WorkloadInfo info{
          parsed->name(), file, workloads::Category::Mixed,
          [src] { return ir::parse_program(src); }, 0, 0, 0};
      products = verify_matrix({&info}, {*version}, master);
    } else {
      verify::verify_program(*parsed, nullptr, master);
      products = 1;
    }
  } else {
    std::vector<const workloads::WorkloadInfo*> ws;
    if (flags.count("workload")) {
      const auto* w = workload_by_name(flags.at("workload"));
      if (w == nullptr) {
        std::fprintf(stderr, "selcache: unknown workload '%s'\n",
                     flags.at("workload").c_str());
        return 2;
      }
      ws.push_back(w);
    } else {
      for (const auto& w : workloads::all_workloads()) ws.push_back(&w);
    }
    std::vector<core::Version> vs;
    if (flags.count("version")) {
      const auto version = version_by_name(flags.at("version"));
      if (!version) return usage();
      vs.push_back(*version);
    } else {
      vs.assign(core::kAllVersions.begin(), core::kAllVersions.end());
    }
    products = verify_matrix(ws, vs, master);
  }

  if (flags.count("csv")) {
    std::printf("%s", master.csv().c_str());
  } else if (master.empty()) {
    std::printf("verified %zu program product%s: no diagnostics\n", products,
                products == 1 ? "" : "s");
  } else {
    std::printf("verified %zu program product%s: %zu error%s, %zu warning%s\n%s",
                products, products == 1 ? "" : "s", master.errors(),
                master.errors() == 1 ? "" : "s", master.warnings(),
                master.warnings() == 1 ? "" : "s", master.str().c_str());
  }
  return master.empty() ? 0 : 1;
}

}  // namespace

int cmd_run_file(const std::string& path,
                 const std::map<std::string, std::string>& flags) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "selcache: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<ir::Program> parsed;
  try {
    parsed.emplace(ir::parse_program(text.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selcache: cannot parse %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }
  const std::string name = parsed->name();

  // Wrap the parsed program in a workload whose builder re-parses the text
  // (the runner clones per version).
  const std::string src = text.str();
  workloads::WorkloadInfo info{name, path, workloads::Category::Mixed,
                               [src] { return ir::parse_program(src); },
                               0, 0, 0};
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  const auto version =
      version_by_name(flags.count("version") ? flags.at("version") : "");
  const auto scheme =
      hw::scheme_by_name(flags.count("scheme") ? flags.at("scheme") : "");
  if (!machine || !version || !scheme) return usage();
  core::RunOptions opt;
  opt.scheme = *scheme;
  const core::RunResult r = core::run_version(info, *machine, *version, opt);
  std::printf("%s (%s) / %s / %s\n", name.c_str(), path.c_str(),
              to_string(*version), hw::to_string(*scheme));
  std::printf("  cycles        %llu\n",
              static_cast<unsigned long long>(r.cycles));
  std::printf("  instructions  %llu\n",
              static_cast<unsigned long long>(r.instructions));
  std::printf("  L1 miss       %.2f%%   L2 miss %.2f%%   toggles %llu\n",
              100.0 * r.l1_miss_rate, 100.0 * r.l2_miss_rate,
              static_cast<unsigned long long>(r.toggles));
  return 0;
}

/// Shared setup for the predict commands: locality options from a machine's
/// cache geometry.
locality::LocalityOptions locality_options(const core::MachineConfig& m) {
  locality::LocalityOptions lopt;
  lopt.l1 = m.hierarchy.l1d;
  lopt.l2 = m.hierarchy.l2;
  return lopt;
}

int cmd_predict(const std::string& wname, const std::string& vname,
                const std::map<std::string, std::string>& flags) {
  const auto* w = workload_by_name(wname);
  const auto version = version_by_name(vname);
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  if (w == nullptr || !version || !machine) return usage();

  transform::OptimizeOptions oopt;
  if (flags.count("threshold") &&
      !parse_double(flags.at("threshold"), &oopt.threshold)) {
    std::fprintf(stderr,
                 "selcache: flag '--threshold' expects a number, got '%s'\n",
                 flags.at("threshold").c_str());
    return 2;
  }
  locality::LocalityOptions lopt = locality_options(*machine);
  if (flags.count("capacity-fraction")) {
    if (!parse_double(flags.at("capacity-fraction"),
                      &lopt.capacity_fraction) ||
        lopt.capacity_fraction <= 0.0) {
      std::fprintf(stderr,
                   "selcache: flag '--capacity-fraction' expects a positive"
                   " number, got '%s'\n",
                   flags.at("capacity-fraction").c_str());
      return 2;
    }
  }
  if (flags.count("predict-classify")) {
    locality::PredictorOptions popt;
    popt.locality = lopt;
    popt.dynamic_threshold = oopt.threshold;
    oopt.method_predictor = locality::make_method_predictor(popt);
    oopt.method_predictor_fingerprint =
        locality::method_predictor_fingerprint(popt);
  }

  const ir::Program product = core::prepare_program(w->build(), *version, oopt);
  const locality::ProgramPrediction pred = locality::predict(product, lopt);

  if (!flags.count("check")) {
    // Static-only: no simulation happens on this path.
    std::fputs(flags.count("csv") ? locality::prediction_csv(pred).c_str()
                                  : locality::prediction_str(pred).c_str(),
               stdout);
    return 0;
  }

  locality::MeasureOptions mopt;
  mopt.hierarchy = machine->hierarchy;
  mopt.cpu = machine->cpu;
  const locality::MeasuredProfile meas =
      locality::measure_program(product, mopt);
  verify::Report report;
  locality::crosscheck(product, pred, meas, report);
  if (flags.count("csv")) {
    std::fputs(locality::comparison_csv(pred, meas).c_str(), stdout);
  } else {
    std::fputs(locality::prediction_str(pred).c_str(), stdout);
    std::fputs(locality::comparison_str(pred, meas).c_str(), stdout);
  }
  if (!report.empty()) std::fputs(report.str().c_str(), stdout);
  std::printf("SP cross-check: %zu error(s), %zu warning(s)\n",
              report.errors(), report.warnings());
  return report.ok() ? 0 : 1;
}

int cmd_predict_matrix(const std::map<std::string, std::string>& flags) {
  const auto machine =
      machine_by_name(flags.count("machine") ? flags.at("machine") : "");
  if (!machine) return usage();
  std::vector<const workloads::WorkloadInfo*> ws;
  if (flags.count("workload")) {
    const auto* w = workload_by_name(flags.at("workload"));
    if (w == nullptr) return usage();
    ws.push_back(w);
  } else {
    for (const auto& w : workloads::all_workloads()) ws.push_back(&w);
  }
  const locality::LocalityOptions lopt = locality_options(*machine);
  locality::MeasureOptions mopt;
  mopt.hierarchy = machine->hierarchy;
  mopt.cpu = machine->cpu;

  struct Cell {
    core::Version version;
    bool analyzable = false;
    double pred_ratio = 0.0;
    double meas_ratio = 0.0;
  };
  const bool csv = flags.count("csv") > 0;
  TextTable table({"workload", "version", "verdict", "analyzable_frac",
                   "pred_l1_ratio", "meas_l1_ratio", "abs_err", "sp"});
  if (csv)
    std::printf(
        "workload,version,category,verdict,analyzable_frac,pred_l1_ratio,"
        "meas_l1_ratio,abs_err,sp_diags\n");
  std::size_t sp_total = 0, analyzable_cells = 0, cells = 0;
  double abs_err_sum = 0.0;
  std::string mismatches;
  for (const auto* w : ws) {
    std::vector<Cell> row_cells;
    for (core::Version v : core::kAllVersions) {
      const ir::Program product =
          core::prepare_program(w->build(), v, transform::OptimizeOptions{});
      const locality::ProgramPrediction pred =
          locality::predict(product, lopt);
      const locality::MeasuredProfile meas =
          locality::measure_program(product, mopt);
      verify::Report report;
      locality::crosscheck(product, pred, meas, report);
      sp_total += report.diagnostics().size();
      ++cells;

      Cell c{v};
      c.meas_ratio = meas.l1d_miss_ratio();
      const auto ratio = pred.l1_miss_ratio();
      c.analyzable =
          pred.verdict(lopt.coverage_floor) == locality::Verdict::Analyzable &&
          pred.total_accesses_exact && ratio.has_value();
      if (c.analyzable) {
        c.pred_ratio = *ratio;
        abs_err_sum += std::abs(c.pred_ratio - c.meas_ratio);
        ++analyzable_cells;
      }
      row_cells.push_back(c);

      const std::string verdict =
          c.analyzable ? "analyzable" : "non-analyzable";
      if (csv) {
        std::printf("%s,%s,%s,%s,%.6f,%s,%.6f,%s,%zu\n",
                    csv_field(w->name).c_str(),
                    core::version_key(v), to_string(w->category),
                    verdict.c_str(), pred.analyzable_fraction(),
                    c.analyzable ? TextTable::num(c.pred_ratio, 6).c_str()
                                 : "-",
                    c.meas_ratio,
                    c.analyzable
                        ? TextTable::num(
                              std::abs(c.pred_ratio - c.meas_ratio), 6)
                              .c_str()
                        : "-",
                    report.diagnostics().size());
      } else {
        table.add_row(
            {w->name, core::version_key(v), verdict,
             TextTable::num(pred.analyzable_fraction(), 3),
             c.analyzable ? TextTable::num(c.pred_ratio, 4) : "-",
             TextTable::num(c.meas_ratio, 4),
             c.analyzable
                 ? TextTable::num(std::abs(c.pred_ratio - c.meas_ratio), 4)
                 : "-",
             std::to_string(report.diagnostics().size())});
      }
    }
    // Ranking concordance: for every version pair whose *measured* ratios
    // differ meaningfully, the prediction must order them the same way.
    for (std::size_t a = 0; a < row_cells.size(); ++a)
      for (std::size_t b = a + 1; b < row_cells.size(); ++b) {
        const Cell& ca = row_cells[a];
        const Cell& cb = row_cells[b];
        if (!ca.analyzable || !cb.analyzable) continue;
        const double md = ca.meas_ratio - cb.meas_ratio;
        if (std::abs(md) < 1e-4) continue;
        const double pd = ca.pred_ratio - cb.pred_ratio;
        if ((md > 0) != (pd > 0))
          mismatches += "  " + w->name + ": " +
                        core::version_key(ca.version) + " vs " +
                        core::version_key(cb.version) + "\n";
      }
  }
  if (!csv) std::fputs(table.str().c_str(), stdout);
  std::printf("cells: %zu  analyzable: %zu  sp_diagnostics: %zu\n", cells,
              analyzable_cells, sp_total);
  if (analyzable_cells > 0)
    std::printf("MAE(L1D miss ratio) over analyzable cells: %.4f\n",
                abs_err_sum / static_cast<double>(analyzable_cells));
  if (mismatches.empty())
    std::printf("version ranking: concordant with simulation\n");
  else
    std::printf("version ranking MISMATCHES:\n%s", mismatches.c_str());
  return sp_total == 0 && mismatches.empty() ? 0 : 1;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  static const std::map<std::string, CommandSpec> kSpecs = {
      {"list", {"list", {}, {}}},
      {"run",
       {"run", {"workload", "machine", "version", "scheme", "threshold"},
        {"stats"}}},
      {"sweep",
       {"sweep",
        {"workload", "machine", "scheme", "threads", "trace-dir", "epoch",
         "fault-kind", "fault-rate", "fault-seed", "fault-budget",
         "watchdog-accesses", "max-retries", "failures-out", "failures-jsonl",
         "store", "run-dir", "deadline-ms", "csv-out", "jsonl-out"},
        {"inject-faults", "integrity-checks", "store-readonly",
         "store-clear"}}},
      {"suite",
       {"suite",
        {"machine", "scheme", "threads", "trace-dir", "epoch", "fault-kind",
         "fault-rate", "fault-seed", "fault-budget",
         "watchdog-accesses", "max-retries", "failures-out", "failures-jsonl",
         "store", "run-dir", "deadline-ms", "csv-out", "jsonl-out"},
        {"verify-pipeline", "inject-faults", "integrity-checks",
         "store-readonly", "store-clear"}}},
      {"store", {"store", {"store", "max-bytes"}, {}}},
      {"resume",
       {"resume", {"threads", "deadline-ms"}, {"status"}}},
      {"faultsim",
       {"faultsim",
        {"machine", "scheme", "fault-kind", "fault-rate", "fault-seed",
         "fault-budget", "watchdog-accesses", "rates"},
        {"integrity-checks", "stats"}}},
      {"show", {"show", {"workload"}, {"optimized", "marked"}}},
      {"run-file", {"run-file", {"machine", "version", "scheme"}, {}}},
      {"trace",
       {"trace",
        {"machine", "scheme", "epoch", "events-out", "metrics-out",
         "csv-out"},
        {}}},
      {"verify", {"verify", {"workload", "version"}, {"csv"}}},
      {"predict",
       {"predict", {"machine", "threshold", "capacity-fraction"},
        {"csv", "check", "predict-classify"}}},
      {"predict-matrix",
       {"predict-matrix", {"machine", "workload"}, {"csv"}}},
  };
  const auto spec_it = kSpecs.find(cmd);
  if (spec_it == kSpecs.end()) {
    std::fprintf(stderr,
                 "selcache: unknown command '%s' (run 'selcache' with no"
                 " arguments for usage)\n",
                 cmd.c_str());
    return 2;
  }
  const CommandSpec& spec = spec_it->second;

  // run-file takes a required positional; verify an optional one; trace
  // takes two (WORKLOAD VERSION). Flags start after any positionals.
  std::string positional, positional2;
  int flag_start = 2;
  const bool requires_file = cmd == "run-file";
  const bool accepts_file = requires_file || cmd == "verify";
  if (accepts_file && argc > 2 &&
      std::string(argv[2]).rfind("--", 0) != 0) {
    positional = argv[2];
    flag_start = 3;
  }
  if (requires_file && positional.empty()) {
    std::fprintf(stderr, "selcache: '%s' expects a FILE argument\n",
                 cmd.c_str());
    return 2;
  }
  if (cmd == "store") {
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "selcache: 'store' expects an ACTION (stats ls gc)\n");
      return 2;
    }
    positional = argv[2];
    flag_start = 3;
  }
  if (cmd == "resume") {
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "selcache: 'resume' expects a RUN_DIR argument\n");
      return 2;
    }
    positional = argv[2];
    flag_start = 3;
  }
  if (cmd == "trace" || cmd == "faultsim" || cmd == "predict") {
    if (argc < 4 || std::string(argv[2]).rfind("--", 0) == 0 ||
        std::string(argv[3]).rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "selcache: '%s' expects WORKLOAD and VERSION"
                   " arguments\n",
                   cmd.c_str());
      return 2;
    }
    positional = argv[2];
    positional2 = argv[3];
    flag_start = 4;
  }

  bool ok = true;
  const auto flags = parse_flags(argc, argv, flag_start, spec, &ok);
  if (!ok) return 2;

  if (cmd == "list") return cmd_list();
  if (cmd == "run") return cmd_run(flags);
  if (cmd == "sweep" || cmd == "suite") return cmd_sweep(flags, cmd == "suite");
  if (cmd == "show") return cmd_show(flags);
  if (cmd == "run-file") return cmd_run_file(positional, flags);
  if (cmd == "trace") return cmd_trace(positional, positional2, flags);
  if (cmd == "faultsim") return cmd_faultsim(positional, positional2, flags);
  if (cmd == "store") return cmd_store(positional, flags);
  if (cmd == "resume") return cmd_resume(positional, flags);
  if (cmd == "predict") return cmd_predict(positional, positional2, flags);
  if (cmd == "predict-matrix") return cmd_predict_matrix(flags);
  return cmd_verify(positional, flags);
}
