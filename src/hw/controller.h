// Run-time ON/OFF controller for the hardware optimization mechanism.
//
// The ISA extension of §4.1 adds activate/deactivate instructions; at
// execution time each one flips a flag that gates the attached HwScheme.
// The controller also implements the redundancy semantics the compiler
// relies on (an activate while already active is a no-op but still costs an
// instruction slot — which is why the compiler eliminates redundant markers).
//
// Robustness: the controller is also where the fault layer meets the
// architecture. Markers pass through an optional fault::Injector (drop /
// duplicate / reorder), and an optional DegradePolicy arms cheap run-time
// self-checks — when the injected-fault budget is exceeded or a scheme
// invariant breaks, the controller DEMOTES to safe mode: the hardware
// scheme is forced off, later markers are ignored, and a structured
// Degradation trace event records the demotion. Results from a degraded run
// are those of a plain cache, never of silently corrupted tables.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "memsys/hw_hooks.h"
#include "trace/recorder.h"

namespace selcache::fault {
class Injector;
}

namespace selcache::hw {

enum class SchemeKind { None, Bypass, Victim, Prefetch, Composite };

inline const char* to_string(SchemeKind k) {
  switch (k) {
    case SchemeKind::None: return "none";
    case SchemeKind::Bypass: return "bypass";
    case SchemeKind::Victim: return "victim";
    case SchemeKind::Prefetch: return "prefetch";
    case SchemeKind::Composite: return "bypass+victim";
  }
  return "?";
}

/// The scheme a command line or run spec names: "bypass" (also the empty
/// name), "victim" or "none". Prefetch and Composite have no name there.
inline std::optional<SchemeKind> scheme_by_name(std::string_view n) {
  if (n.empty()) return SchemeKind::Bypass;
  for (SchemeKind k :
       {SchemeKind::Bypass, SchemeKind::Victim, SchemeKind::None})
    if (n == to_string(k)) return k;
  return std::nullopt;
}

/// Why the controller demoted to safe mode.
enum class DegradeReason : std::uint8_t { None = 0, FaultBudget = 1,
                                          IntegrityCheck = 2 };

inline const char* to_string(DegradeReason r) {
  switch (r) {
    case DegradeReason::None: return "none";
    case DegradeReason::FaultBudget: return "fault_budget";
    case DegradeReason::IntegrityCheck: return "integrity";
  }
  return "?";
}

/// When (and whether) the controller self-checks and demotes. Default:
/// disarmed — zero cost beyond one predictable branch per data access.
struct DegradePolicy {
  /// Demote once the attached injector reports more than this many injected
  /// faults (0 = no budget).
  std::uint64_t fault_budget = 0;
  /// Run HwScheme::check_integrity() periodically and demote on failure.
  bool integrity_checks = false;
  /// Data accesses between periodic checks (amortizes the table sweeps).
  std::uint64_t check_interval = 4096;

  bool armed() const { return fault_budget > 0 || integrity_checks; }
};

class Controller {
 public:
  /// `scheme` may be null (machine without the hardware mechanism).
  explicit Controller(memsys::HwScheme* scheme) : scheme_(scheme) {}

  /// `history`'s counters and policy driving `scheme`, which takes
  /// `history`'s ON/OFF state: a version's controller carried onto a copy
  /// of the machine it rode until then.
  Controller(const Controller& history, memsys::HwScheme* scheme)
      : Controller(history) {
    scheme_ = scheme;
    if (scheme_ != nullptr) scheme_->set_active(history.active());
  }

  /// Execute an activate (ON) or deactivate (OFF) instruction. `region` is
  /// the static source-region id the marker belongs to (-1 when unknown,
  /// e.g. hand-written toggles in tests). With a fault injector attached
  /// the marker may be dropped, duplicated or reordered before it takes
  /// effect; in safe mode it still costs its slot but is ignored.
  void toggle(bool on, std::int32_t region = -1) {
    ++toggles_executed_;
    if (fault_ == nullptr && !degraded_) {
      apply_toggle(on, region);
      return;
    }
    faulted_toggle(on, region);
  }

  /// Force the scheme on for the entire run (PureHardware / Combined
  /// versions) or off (Base / PureSoftware). Emits a synthetic Toggle event
  /// (region -1) when a recorder is attached so timelines know the run's
  /// initial state. A degraded controller refuses to re-enable.
  void force(bool on) {
    if (degraded_ && on) return;
    if (scheme_ != nullptr) scheme_->set_active(on);
    if (trace_ != nullptr && scheme_ != nullptr)
      trace_->event(
          {.kind = trace::EventKind::Toggle, .region = -1, .on = on});
  }

  /// Per-data-access heartbeat (called from the timing model). Disarmed or
  /// already-degraded controllers return after one branch.
  void tick() {
    if (!armed_ || degraded_) return;
    if (++accesses_since_check_ < policy_.check_interval) return;
    accesses_since_check_ = 0;
    run_checks();
  }

  /// Attach (non-owning) a phase-trace recorder; nullptr detaches.
  void set_trace(trace::Recorder* rec) { trace_ = rec; }

  /// Attach (non-owning) a fault injector at the marker-delivery boundary;
  /// nullptr detaches. The injector is also what the fault budget counts.
  void set_fault(fault::Injector* inj) { fault_ = inj; }

  /// Arm (or disarm, with a default-constructed policy) degradation.
  void set_degrade_policy(const DegradePolicy& policy) {
    policy_ = policy;
    armed_ = policy.armed();
  }

  bool active() const { return scheme_ != nullptr && scheme_->active(); }
  memsys::HwScheme* scheme() const { return scheme_; }

  bool degraded() const { return degraded_; }
  DegradeReason degrade_reason() const { return reason_; }

  std::uint64_t toggles_executed() const { return toggles_executed_; }
  std::uint64_t effective_toggles() const { return effective_toggles_; }
  std::uint64_t degradations() const { return degradations_; }

  void export_stats(StatSet& out) const {
    out.add("controller.toggles_executed", toggles_executed_);
    out.add("controller.effective_toggles", effective_toggles_);
    // Degradation keys only exist when the policy is armed, so un-faulted
    // runs keep their stat/JSONL output byte-identical to earlier builds.
    if (armed_) {
      out.add("controller.degradations", degradations_);
      out.add("controller.safe_mode", degraded_ ? 1 : 0);
    }
  }

 private:
  void apply_toggle(bool on, std::int32_t region) {
    if (scheme_ == nullptr) return;
    if (scheme_->active() != on) ++effective_toggles_;
    scheme_->set_active(on);
    if (trace_ != nullptr)
      trace_->event({.kind = trace::EventKind::Toggle,
                     .region = region,
                     .on = on});
  }

  // Cold path bodies (controller.cpp): marker delivery through the
  // injector, self-checks, and the demotion itself.
  void faulted_toggle(bool on, std::int32_t region);
  void run_checks();
  void demote(DegradeReason reason);

  memsys::HwScheme* scheme_;
  trace::Recorder* trace_ = nullptr;
  fault::Injector* fault_ = nullptr;
  DegradePolicy policy_{};
  bool armed_ = false;
  bool degraded_ = false;
  DegradeReason reason_ = DegradeReason::None;
  std::uint64_t accesses_since_check_ = 0;
  std::uint64_t toggles_executed_ = 0;
  std::uint64_t effective_toggles_ = 0;
  std::uint64_t degradations_ = 0;
};

}  // namespace selcache::hw
