#include "run/checkpoint.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>

#include "store/store.h"
#include "support/fingerprint.h"
#include "support/io.h"
#include "support/table.h"

namespace selcache::run {

namespace fs = std::filesystem;

namespace {

std::string journal_path(const std::string& run_dir) {
  return (fs::path(run_dir) / "journal.wal").string();
}

std::string store_dir(const std::string& run_dir) {
  return (fs::path(run_dir) / "store").string();
}

std::string ledger_path(const std::string& run_dir) {
  return (fs::path(run_dir) / "cells.csv").string();
}

/// Content fingerprint of one cell result — journaled with the `done`
/// record and re-verified against the stored result on resume, so a store
/// entry that drifted from what the journal promised degrades to a re-run
/// instead of silently changing the output.
std::uint64_t result_fingerprint(const core::RunResult& r) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_u64(h, r.cycles);
  h = fnv1a_u64(h, r.instructions);
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.l1_miss_rate));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.l2_miss_rate));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.conflict_share));
  h = fnv1a_u64(h, r.toggles);
  for (const auto& [k, v] : r.stats.all()) {
    h = fnv1a_str(h, k);
    h = fnv1a_u64(h, v);
  }
  return h;
}

/// Crash hook for the kill-resume test harness: SELCACHE_CRASH_AFTER_CELLS=N
/// raises SIGKILL immediately after the N-th `done` record of this process
/// is journaled (and therefore durable). Parsed once per execute().
struct CrashHook {
  std::uint64_t after = 0;  ///< 0 = disarmed
  std::atomic<std::uint64_t> done{0};

  CrashHook() {
    const char* env = std::getenv("SELCACHE_CRASH_AFTER_CELLS");
    if (env != nullptr && *env != '\0') after = std::strtoull(env, nullptr, 10);
  }

  void tick() {
    if (after == 0) return;
    if (done.fetch_add(1, std::memory_order_relaxed) + 1 == after)
      std::raise(SIGKILL);
  }
};

/// cells.csv: the human-readable status ledger, rewritten atomically at
/// every suspend/finish so an operator can see where a run stands without
/// decoding the journal.
void flush_ledger(const std::string& run_dir,
                  const std::vector<CellOutcome>& cells) {
  std::string csv = "workload,version,status,attempts,reason\n";
  for (const CellOutcome& c : cells)
    csv += csv_field(c.workload) + "," + csv_field(c.version) + "," +
           csv_field(c.status) + "," + std::to_string(c.attempts) + "," +
           csv_field(c.reason) + "\n";
  support::write_file_atomic(ledger_path(run_dir), csv);
}

CheckpointOutcome execute(const std::string& run_dir, const RunSpec& spec,
                          const CheckpointOptions& opts,
                          const JournalReadResult& existing) {
  CheckpointOutcome out;
  out.id = run_id(spec);

  const std::optional<core::MachineConfig> machine =
      core::machine_by_name(spec.machine);
  if (!machine) {
    out.error = "unknown machine '" + spec.machine + "'";
    return out;
  }
  const std::optional<hw::SchemeKind> scheme = hw::scheme_by_name(spec.scheme);
  if (!scheme) {
    out.error = "unknown scheme '" + spec.scheme + "'";
    return out;
  }

  std::span<const workloads::WorkloadInfo> suite;
  if (spec.kind == "sweep") {
    try {
      suite = {&workloads::workload(spec.workload), 1};
    } catch (const std::exception&) {
      out.error = "unknown workload '" + spec.workload + "'";
      return out;
    }
  } else if (spec.kind == "suite") {
    suite = workloads::all_workloads();
  } else {
    out.error = "unknown run kind '" + spec.kind + "'";
    return out;
  }

  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    out.error = "cannot create run directory: " + ec.message();
    return out;
  }
  std::unique_ptr<store::ResultStore> store;
  try {
    store = std::make_unique<store::ResultStore>(store_dir(run_dir));
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  core::RunOptions opt;
  opt.scheme = *scheme;
  opt.result_store = store.get();

  JournalWriter journal(journal_path(run_dir));
  if (!journal.ok()) {
    out.error = "cannot open journal: " + journal.last_error();
    return out;
  }
  std::atomic<bool> journal_failed{false};
  const auto append = [&](const JournalRecord& rec) {
    if (!journal.append(rec))
      journal_failed.store(true, std::memory_order_relaxed);
  };
  using Clock = std::chrono::steady_clock;
  const std::optional<Clock::time_point> deadline =
      opts.run_deadline_ms > 0
          ? std::optional(Clock::now() +
                          std::chrono::milliseconds(opts.run_deadline_ms))
          : std::nullopt;
  const auto stopping = [&] {
    return (opts.stop != nullptr &&
            opts.stop->load(std::memory_order_relaxed) != 0) ||
           (deadline && Clock::now() > *deadline);
  };

  // Each cell's outcome, starting from what the journal already knows
  // (attempt counts, done fingerprints, quarantines); a fresh run lays
  // down the header and the plan instead.
  constexpr std::size_t nv = core::kAllVersions.size();
  const std::size_t n_cells = suite.size() * nv;
  std::vector<CellOutcome> cells(n_cells);
  std::vector<std::optional<std::uint64_t>> done_fp(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    cells[i].workload = suite[i / nv].name;
    cells[i].version = core::version_key(core::kAllVersions[i % nv]);
    cells[i].status = "pending";
  }
  const auto name_of = [&](std::size_t i) {
    return cells[i].workload + "/" + cells[i].version;
  };
  if (existing.records.empty()) {
    append(to_record(spec));
    for (std::size_t i = 0; i < n_cells; ++i)
      append(JournalRecord("planned").add("cell", name_of(i)));
  }
  for (const JournalRecord& rec : existing.records) {
    const std::string* name = rec.find("cell");
    std::size_t i = 0;
    while (name != nullptr && i < n_cells && name_of(i) != *name) ++i;
    if (name == nullptr || i == n_cells) continue;  // not a cell of this run
    if (rec.type == "started") ++cells[i].attempts;
    if (rec.type == "done") done_fp[i] = rec.get_u64("fp");
    if (rec.type == "quarantined") {
      cells[i].status = "quarantined";
      cells[i].reason = rec.get("reason");
    }
  }

  // Keep what the journal can vouch for: a `done` cell whose stored result
  // round-trips with its journaled fingerprint. Every other cell (planned,
  // started but unfinished, or done but lost, torn or edited in the store)
  // goes to core's unit loop, which simulates it and never reads it back.
  std::vector<std::optional<core::RunResult>> results(n_cells);
  std::vector<bool> todo(n_cells, false);
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (cells[i].status == "quarantined") continue;
    if (done_fp[i]) {
      if (std::optional<store::StoredResult> hit = store->load(core::store_key(
              suite[i / nv], *machine, core::kAllVersions[i % nv], opt))) {
        core::RunResult r = core::from_stored(*hit);
        if (result_fingerprint(r) == *done_fp[i]) {
          cells[i].status = "stored";
          results[i] = std::move(r);
          continue;
        }
      }
    }
    todo[i] = true;
  }

  // The journal around each unit. Once the run is stopping, no unit
  // starts, so its cells stay unjournaled and resume re-plans them.
  CrashHook crash;
  std::vector<char> started(n_cells, 0);
  core::UnitHooks hooks;
  hooks.start = [&](const std::vector<std::size_t>& ids) {
    if (stopping()) return false;
    for (std::size_t i : ids) {
      append(JournalRecord("started").add("cell", name_of(i)));
      started[i] = 1;
    }
    return true;
  };
  hooks.saved = [&](std::size_t i, const core::RunResult& r) {
    append(JournalRecord("done")
               .add("cell", name_of(i))
               .add("fp", result_fingerprint(r)));
    cells[i].status = "done";
    crash.tick();
  };
  hooks.failed = [&](const std::vector<std::size_t>& ids,
                     const std::string& reason) {
    for (std::size_t i : ids) {
      append(JournalRecord("failed")
                 .add("cell", name_of(i))
                 .add("reason", reason));
      append(JournalRecord("quarantined")
                 .add("cell", name_of(i))
                 .add("reason", reason));
      cells[i].status = "quarantined";
      cells[i].reason = reason;
    }
  };
  core::run_units(suite, *machine, opt, {.num_threads = opts.threads}, todo,
                  results, hooks);

  for (std::size_t i = 0; i < n_cells; ++i) {
    cells[i].attempts += started[i];
    if (cells[i].status == "done") ++out.cells_done;
    if (cells[i].status == "stored") ++out.cells_from_store;
    if (cells[i].status == "quarantined") ++out.cells_quarantined;
  }
  out.cells = std::move(cells);
  // Only a stop leaves a cell pending: its unit, or its copy's source's
  // unit, never started.
  out.complete =
      out.cells_done + out.cells_from_store + out.cells_quarantined == n_cells;
  out.suspended = !out.complete;
  if (out.suspended) {
    append(JournalRecord("suspended")
               .add("cells_done", out.cells_done)
               .add("cells_from_store", out.cells_from_store));
  } else {
    append(JournalRecord("complete")
               .add("cells_done", out.cells_done)
               .add("cells_from_store", out.cells_from_store)
               .add("cells_quarantined", out.cells_quarantined));
  }
  flush_ledger(run_dir, out.cells);

  // Rows only for a finished run: a suspended sweep has no figure yet (the
  // whole point is that `resume` produces it later, byte-identical).
  if (out.complete) {
    out.rows.reserve(suite.size());
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
      std::array<std::optional<core::RunResult>, nv> row;
      for (std::size_t vi = 0; vi < nv; ++vi)
        row[vi] = std::move(results[wi * nv + vi]);
      // The row constructor is the one the plain sweep engines use — that
      // shared code path is what makes resumed output byte-identical. Rows
      // with quarantined cells render 0.0 for the missing versions (same
      // convention as the resilient engine); byte-equality against an
      // uninterrupted run is only claimed for quarantine-free runs.
      out.rows.push_back(core::make_row_partial(suite[wi], row));
    }
  }

  if (journal_failed.load(std::memory_order_relaxed))
    out.error = "journal append failed: " + journal.last_error();
  return out;
}

}  // namespace

CheckpointOutcome run_checkpointed(const std::string& run_dir,
                                   const RunSpec& spec,
                                   const CheckpointOptions& opts) {
  const JournalReadResult existing = read_journal(journal_path(run_dir));
  if (!existing.records.empty()) {
    // The directory already holds a run: only continue if it is THIS run.
    CheckpointOutcome bad;
    const std::optional<RunSpec> prior =
        from_record(existing.records.front(), &bad.error);
    if (!prior) return bad;
    if (run_id(*prior) != run_id(spec)) {
      bad.error = "run directory belongs to a different run (journal id " +
                  run_id(*prior) + ", requested " + run_id(spec) + ")";
      return bad;
    }
  }
  return execute(run_dir, spec, opts, existing);
}

CheckpointOutcome resume_checkpointed(const std::string& run_dir,
                                      const CheckpointOptions& opts) {
  const JournalReadResult existing = read_journal(journal_path(run_dir));
  CheckpointOutcome bad;
  if (existing.records.empty()) {
    bad.error = "no journal found in '" + run_dir + "'";
    return bad;
  }
  const std::optional<RunSpec> spec =
      from_record(existing.records.front(), &bad.error);
  if (!spec) return bad;
  return execute(run_dir, *spec, opts, existing);
}

RunStatus inspect_run(const std::string& run_dir) {
  RunStatus st;
  const JournalReadResult j = read_journal(journal_path(run_dir));
  if (j.records.empty()) {
    st.error = "no journal found in '" + run_dir + "'";
    return st;
  }
  const std::optional<RunSpec> spec =
      from_record(j.records.front(), &st.error);
  if (!spec) return st;
  st.spec = *spec;
  st.id = run_id(*spec);
  st.torn_tail = j.torn_tail;
  st.bytes_dropped = j.bytes_dropped;

  // Fold records into per-cell status, preserving first-seen (plan) order.
  std::vector<std::string> order;
  std::vector<CellOutcome> cells;
  auto slot = [&](const std::string& name) -> CellOutcome& {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == name) return cells[i];
    order.push_back(name);
    CellOutcome o;
    const std::size_t sep = name.rfind('/');
    o.workload = sep == std::string::npos ? name : name.substr(0, sep);
    o.version = sep == std::string::npos ? "" : name.substr(sep + 1);
    o.status = "planned";
    cells.push_back(std::move(o));
    return cells.back();
  };
  for (const JournalRecord& rec : j.records) {
    if (rec.type == "suspended") st.suspended = true;
    if (rec.type == "complete") st.complete = true;
    const std::string* cell = rec.find("cell");
    if (cell == nullptr) continue;
    CellOutcome& o = slot(*cell);
    if (rec.type == "started") {
      ++o.attempts;
      o.status = "started";
    } else if (rec.type == "done") {
      o.status = "done";
    } else if (rec.type == "failed") {
      o.status = "failed";
      o.reason = rec.get("reason");
    } else if (rec.type == "quarantined") {
      o.status = "quarantined";
      o.reason = rec.get("reason");
    }
  }
  st.cells = std::move(cells);
  return st;
}

}  // namespace selcache::run
