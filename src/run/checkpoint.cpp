#include "run/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "store/store.h"
#include "support/fingerprint.h"
#include "support/io.h"
#include "support/run_guard.h"
#include "support/thread_pool.h"

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

std::optional<hw::SchemeKind> scheme_by_short_name(const std::string& n) {
  for (hw::SchemeKind k :
       {hw::SchemeKind::None, hw::SchemeKind::Bypass, hw::SchemeKind::Victim,
        hw::SchemeKind::Prefetch, hw::SchemeKind::Composite})
    if (n == hw::to_string(k)) return k;
  if (n.empty()) return hw::SchemeKind::Bypass;
  return std::nullopt;
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

/// What the journal already knows about one cell.
struct CellHistory {
  std::uint32_t attempts = 0;  ///< `started` records seen
  bool done = false;
  bool quarantined = false;
  std::uint64_t done_fp = 0;
  std::string reason;
};

/// Outcome of executing (or skipping) one cell in this process.
struct CellExec {
  enum class State { Done, Stored, Quarantined, Suspended, Pending };
  State state = State::Pending;
  std::optional<core::RunResult> result;
  std::uint32_t attempts = 0;  ///< attempts made by THIS call
  std::uint32_t failed = 0;    ///< failed attempts by THIS call
  std::string reason;
};

std::string cell_name(const workloads::WorkloadInfo& w, std::size_t vi) {
  return w.name + "/" + core::version_key(core::kAllVersions[vi]);
}

/// Everything one execute() call shares across cell tasks.
struct Engine {
  const RunSpec& spec;
  const CheckpointOptions& opts;
  core::MachineConfig machine;
  core::RunOptions base_opt;
  std::vector<const workloads::WorkloadInfo*> suite;
  std::unique_ptr<store::ResultStore> store;
  std::unique_ptr<JournalWriter> journal;
  CrashHook crash;
  std::atomic<bool> journal_failed{false};
  bool has_run_deadline = false;
  support::RunGuard::Clock::time_point run_deadline{};

  Engine(const RunSpec& s, const CheckpointOptions& o) : spec(s), opts(o) {}

  bool append(const JournalRecord& rec) {
    if (journal->append(rec)) return true;
    journal_failed.store(true, std::memory_order_relaxed);
    return false;
  }

  bool stop_requested() const {
    if (opts.stop != nullptr &&
        opts.stop->load(std::memory_order_relaxed) != 0)
      return true;
    return has_run_deadline &&
           support::RunGuard::Clock::now() > run_deadline;
  }

  CellExec run_cell(std::size_t wi, std::size_t vi,
                    std::uint32_t attempts_base) {
    const workloads::WorkloadInfo& w = *suite[wi];
    const core::Version v = core::kAllVersions[vi];
    const std::string cell = cell_name(w, vi);
    CellExec out;
    for (std::uint32_t attempt = 0; attempt <= opts.cell_retries; ++attempt) {
      if (attempt > 0 && opts.retry_backoff_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retry_backoff_delay_ms(
                opts.retry_backoff_ms, w.name, vi, attempts_base + attempt)));
      // Suspend at the attempt boundary too, so a stop raised while this
      // task was backing off never starts another multi-second simulation.
      if (stop_requested()) {
        out.state = CellExec::State::Suspended;
        return out;
      }
      ++out.attempts;
      append(JournalRecord("started")
                 .add("cell", cell)
                 .add("attempt", std::uint64_t{attempts_base + attempt})
                 .add("seed", base_opt.data_seed));
      support::RunGuard guard(opts.stop);
      guard.arm_cell_deadline(opts.cell_deadline_ms);
      if (has_run_deadline) guard.arm_run_deadline(run_deadline);
      core::RunOptions opt = base_opt;
      opt.run_guard = &guard;
      try {
        core::RunResult r = core::run_version(w, machine, v, opt);
        append(JournalRecord("done")
                   .add("cell", cell)
                   .add("fp", result_fingerprint(r))
                   .add("attempt", std::uint64_t{attempts_base + attempt}));
        crash.tick();
        out.state = CellExec::State::Done;
        out.result = std::move(r);
        return out;
      } catch (const support::RunSuspended&) {
        // No record: the cell simply never finished. Resume re-plans it.
        out.state = CellExec::State::Suspended;
        return out;
      } catch (const std::exception& e) {
        out.reason = e.what();
      } catch (...) {
        out.reason = "unknown exception";
      }
      ++out.failed;
      append(JournalRecord("failed")
                 .add("cell", cell)
                 .add("attempt", std::uint64_t{attempts_base + attempt})
                 .add("reason", out.reason));
    }
    append(JournalRecord("quarantined")
               .add("cell", cell)
               .add("reason", out.reason));
    out.state = CellExec::State::Quarantined;
    return out;
  }
};

/// cells.csv: the human-readable status ledger, rewritten atomically at
/// every suspend/finish so an operator can see where a run stands without
/// decoding the journal.
void flush_ledger(const std::string& run_dir,
                  const std::vector<CellOutcome>& cells) {
  std::string csv = "workload,version,status,attempts,reason\n";
  for (const CellOutcome& c : cells) {
    std::string reason = c.reason;
    for (char& ch : reason)
      if (ch == ',' || ch == '\n' || ch == '\r') ch = ' ';
    csv += c.workload + "," + c.version + "," + c.status + "," +
           std::to_string(c.attempts) + "," + reason + "\n";
  }
  support::write_file_atomic(ledger_path(run_dir), csv);
}

CheckpointOutcome execute(const std::string& run_dir, const RunSpec& spec,
                          const CheckpointOptions& opts,
                          const JournalReadResult& existing) {
  CheckpointOutcome out;
  out.id = run_id(spec);

  Engine eng(spec, opts);

  const std::optional<core::MachineConfig> m =
      core::machine_by_name(spec.machine);
  if (!m) {
    out.error = "unknown machine '" + spec.machine + "'";
    return out;
  }
  eng.machine = *m;
  const std::optional<hw::SchemeKind> scheme =
      scheme_by_short_name(spec.scheme);
  if (!scheme) {
    out.error = "unknown scheme '" + spec.scheme + "'";
    return out;
  }

  if (spec.kind == "sweep") {
    try {
      eng.suite.push_back(&workloads::workload(spec.workload));
    } catch (const std::exception&) {
      out.error = "unknown workload '" + spec.workload + "'";
      return out;
    }
  } else if (spec.kind == "suite") {
    for (const auto& w : workloads::all_workloads()) eng.suite.push_back(&w);
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
  try {
    eng.store = std::make_unique<store::ResultStore>(store_dir(run_dir));
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  eng.base_opt.scheme = *scheme;
  eng.base_opt.result_store = eng.store.get();

  eng.journal = std::make_unique<JournalWriter>(journal_path(run_dir));
  if (!eng.journal->ok()) {
    out.error = "cannot open journal: " + eng.journal->last_error();
    return out;
  }
  if (opts.run_deadline_ms > 0) {
    eng.has_run_deadline = true;
    eng.run_deadline = support::RunGuard::Clock::now() +
                       std::chrono::milliseconds(opts.run_deadline_ms);
  }

  // Replay history (attempt counts, done fingerprints, quarantines) from
  // the existing journal, or lay down the header + plan for a fresh run.
  const std::size_t n_cells = eng.suite.size() * core::kAllVersions.size();
  std::vector<CellHistory> history(n_cells);
  auto cell_index = [&](const std::string& name) -> std::size_t {
    for (std::size_t wi = 0; wi < eng.suite.size(); ++wi)
      for (std::size_t vi = 0; vi < core::kAllVersions.size(); ++vi)
        if (cell_name(*eng.suite[wi], vi) == name)
          return wi * core::kAllVersions.size() + vi;
    return n_cells;  // unknown cell (foreign journal line): ignored
  };

  if (existing.records.empty()) {
    eng.append(to_record(spec));
    for (std::size_t wi = 0; wi < eng.suite.size(); ++wi)
      for (std::size_t vi = 0; vi < core::kAllVersions.size(); ++vi)
        eng.append(JournalRecord("planned")
                       .add("cell", cell_name(*eng.suite[wi], vi)));
  } else {
    for (const JournalRecord& rec : existing.records) {
      const std::string* cell = rec.find("cell");
      if (cell == nullptr) continue;
      const std::size_t i = cell_index(*cell);
      if (i >= n_cells) continue;
      if (rec.type == "started") ++history[i].attempts;
      if (rec.type == "done") {
        history[i].done = true;
        history[i].done_fp = rec.get_u64("fp");
      }
      if (rec.type == "failed") history[i].reason = rec.get("reason");
      if (rec.type == "quarantined") {
        history[i].quarantined = true;
        history[i].reason = rec.get("reason");
      }
    }
  }

  // Settle every cell: trusted `done` results load from the store; the
  // rest (planned, started-but-unfinished, done-but-unverifiable) re-run.
  std::vector<CellExec> cells(n_cells);
  std::vector<std::size_t> pending;
  for (std::size_t wi = 0; wi < eng.suite.size(); ++wi) {
    for (std::size_t vi = 0; vi < core::kAllVersions.size(); ++vi) {
      const std::size_t i = wi * core::kAllVersions.size() + vi;
      if (history[i].quarantined) {
        cells[i].state = CellExec::State::Quarantined;
        cells[i].reason = history[i].reason;
        continue;
      }
      if (history[i].done) {
        const std::string key = core::store_key(
            *eng.suite[wi], eng.machine, core::kAllVersions[vi], eng.base_opt);
        if (std::optional<store::StoredResult> hit = eng.store->load(key)) {
          core::RunResult r = core::from_stored(*hit);
          if (result_fingerprint(r) == history[i].done_fp) {
            cells[i].state = CellExec::State::Stored;
            cells[i].result = std::move(r);
            continue;
          }
        }
        // The journal promised a result the store cannot substantiate
        // (lost, torn, or drifted file). The cell re-runs.
      }
      pending.push_back(i);
    }
  }

  // Execute pending cells on the shared executor; results merge by index,
  // so scheduling never affects the output. Once the run is stopping, every
  // cell still to start sees the stop and returns Suspended unjournaled.
  support::run_cells(pending.size(), opts.threads, [&](std::size_t k) {
    const std::size_t i = pending[k];
    cells[i] = eng.run_cell(i / core::kAllVersions.size(),
                            i % core::kAllVersions.size(),
                            history[i].attempts);
  });
  const bool suspended =
      std::any_of(cells.begin(), cells.end(), [](const CellExec& c) {
        return c.state == CellExec::State::Suspended;
      });

  // Tally + outcome ledger in fixed (workload, version) order.
  bool all_terminal = true;
  for (std::size_t wi = 0; wi < eng.suite.size(); ++wi) {
    for (std::size_t vi = 0; vi < core::kAllVersions.size(); ++vi) {
      const std::size_t i = wi * core::kAllVersions.size() + vi;
      const CellExec& c = cells[i];
      CellOutcome o;
      o.workload = eng.suite[wi]->name;
      o.version = core::version_key(core::kAllVersions[vi]);
      o.attempts = history[i].attempts + c.attempts;
      o.reason = c.reason;
      out.failed_attempts += c.failed;
      switch (c.state) {
        case CellExec::State::Done:
          o.status = "done";
          ++out.cells_done;
          break;
        case CellExec::State::Stored:
          o.status = "stored";
          ++out.cells_from_store;
          break;
        case CellExec::State::Quarantined:
          o.status = "quarantined";
          ++out.cells_quarantined;
          break;
        default:
          o.status = "pending";
          all_terminal = false;
          break;
      }
      out.cells.push_back(std::move(o));
    }
  }

  out.suspended = suspended || (!all_terminal && eng.stop_requested());
  out.complete = all_terminal && !out.suspended;
  if (out.suspended) {
    eng.append(JournalRecord("suspended")
                   .add("cells_done", out.cells_done)
                   .add("cells_from_store", out.cells_from_store));
  } else if (out.complete) {
    eng.append(JournalRecord("complete")
                   .add("cells_done", out.cells_done)
                   .add("cells_from_store", out.cells_from_store)
                   .add("cells_quarantined", out.cells_quarantined));
  }
  flush_ledger(run_dir, out.cells);

  // Rows only for a finished run: a suspended sweep has no figure yet (the
  // whole point is that `resume` produces it later, byte-identical).
  if (out.complete) {
    out.rows.reserve(eng.suite.size());
    for (std::size_t wi = 0; wi < eng.suite.size(); ++wi) {
      std::array<std::optional<core::RunResult>, 5> results;
      for (std::size_t vi = 0; vi < core::kAllVersions.size(); ++vi)
        results[vi] =
            std::move(cells[wi * core::kAllVersions.size() + vi].result);
      // The row constructor is the one the plain sweep engines use — that
      // shared code path is what makes resumed output byte-identical. Rows
      // with quarantined cells render 0.0 for the missing versions (same
      // convention as the resilient engine); byte-equality against an
      // uninterrupted run is only claimed for quarantine-free runs.
      out.rows.push_back(core::make_row_partial(*eng.suite[wi], results));
    }
  }

  if (eng.journal_failed.load(std::memory_order_relaxed))
    out.error = "journal append failed: " + eng.journal->last_error();
  return out;
}

}  // namespace

std::uint64_t retry_backoff_delay_ms(std::uint64_t base_ms,
                                     const std::string& workload,
                                     std::size_t version_index,
                                     std::uint32_t attempt) {
  if (base_ms == 0 || attempt == 0) return 0;
  // Bounded exponential: cap the exponent so a long retry history cannot
  // overflow into a multi-hour sleep.
  const std::uint32_t exp = attempt - 1 < 6 ? attempt - 1 : 6;
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_str(h, workload);
  h = fnv1a_u64(h, version_index);
  h = fnv1a_u64(h, attempt);
  return base_ms * (std::uint64_t{1} << exp) + h % base_ms;
}

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
