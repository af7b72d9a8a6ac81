// Fault-injection subsystem: injector determinism, per-kind behavior,
// corrupted-state observability (integrity checks), controller degradation,
// watchdog enforcement, and the FailureReport serializations.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/runner.h"
#include "fault/injector.h"
#include "fault/report.h"
#include "hw/bypass_scheme.h"
#include "hw/controller.h"
#include "hw/mat.h"
#include "hw/sldt.h"
#include "trace/jsonl.h"
#include "trace/recorder.h"
#include "trace/recording.h"

namespace selcache::fault {
namespace {

FaultConfig cfg(FaultKind kind, double rate, std::uint64_t seed = 42) {
  FaultConfig c;
  c.kind = kind;
  c.rate = rate;
  c.seed = seed;
  return c;
}

TEST(TaskSeed, DeterministicAndSensitiveToEveryField) {
  const std::uint64_t s = task_seed(7, "Swim", 3, 0);
  EXPECT_EQ(s, task_seed(7, "Swim", 3, 0));
  std::set<std::uint64_t> distinct{s};
  distinct.insert(task_seed(8, "Swim", 3, 0));   // base seed
  distinct.insert(task_seed(7, "Chaos", 3, 0));  // workload
  distinct.insert(task_seed(7, "Swim", 4, 0));   // version index
  distinct.insert(task_seed(7, "Swim", 3, 1));   // retry attempt
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(Injector, SameConfigSameDecisionStream) {
  Injector a(cfg(FaultKind::CounterFlip, 0.5));
  Injector b(cfg(FaultKind::CounterFlip, 0.5));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(a.corrupt_counter(5, 255, CounterSite::Mat),
              b.corrupt_counter(5, 255, CounterSite::Mat));
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_GT(a.injected(), 0u);
}

TEST(Injector, RateZeroOrKindNoneNeverFires) {
  Injector zero(cfg(FaultKind::CounterFlip, 0.0));
  Injector none(cfg(FaultKind::None, 1.0));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(zero.corrupt_counter(5, 255, CounterSite::Mat), std::nullopt);
    EXPECT_EQ(none.corrupt_counter(5, 255, CounterSite::Sldt), std::nullopt);
    EXPECT_FALSE(none.should_invalidate(BufferSite::BypassBuffer));
  }
  EXPECT_EQ(zero.injected(), 0u);
  EXPECT_EQ(none.injected(), 0u);
}

TEST(Injector, CounterResetZeroesAndFlipTouchesOneBit) {
  Injector reset(cfg(FaultKind::CounterReset, 1.0));
  EXPECT_EQ(reset.corrupt_counter(200, 255, CounterSite::Mat),
            std::optional<std::uint32_t>(0));

  Injector flip(cfg(FaultKind::CounterFlip, 1.0));
  bool exceeded_max = false;
  for (int i = 0; i < 64; ++i) {
    const auto raw = flip.corrupt_counter(255, 255, CounterSite::Mat);
    ASSERT_TRUE(raw.has_value());
    const std::uint32_t diff = *raw ^ 255u;
    EXPECT_NE(diff, 0u);
    EXPECT_EQ(diff & (diff - 1), 0u) << "exactly one bit flipped";
    if (*raw > 255u) exceeded_max = true;
  }
  // The guard bit guarantees flips can land above the ceiling, which is
  // what makes the corruption visible to integrity checks.
  EXPECT_TRUE(exceeded_max);
}

TEST(Injector, ToggleDropAndDupAtRateOne) {
  bool out[2];
  Injector drop(cfg(FaultKind::ToggleDrop, 1.0));
  EXPECT_EQ(drop.transform_toggle(true, out), 0);

  Injector dup(cfg(FaultKind::ToggleDup, 1.0));
  ASSERT_EQ(dup.transform_toggle(false, out), 2);
  EXPECT_FALSE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(Injector, ToggleReorderHoldsThenDeliversSwappedPair) {
  bool out[2];
  Injector inj(cfg(FaultKind::ToggleReorder, 1.0));
  EXPECT_EQ(inj.transform_toggle(true, out), 0);  // ON held back
  ASSERT_EQ(inj.transform_toggle(false, out), 2);
  EXPECT_FALSE(out[0]);  // OFF arrives first
  EXPECT_TRUE(out[1]);   // held ON arrives second — pair swapped
}

TEST(Injector, PassthroughWhenKindDoesNotListen) {
  bool out[2];
  Injector inj(cfg(FaultKind::CounterFlip, 1.0));
  ASSERT_EQ(inj.transform_toggle(true, out), 1);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(inj.should_invalidate(BufferSite::L1Victim));
}

TEST(Injector, WatchdogThrowsPastBudgetRegardlessOfKind) {
  Injector inj(cfg(FaultKind::None, 0.0), /*watchdog_accesses=*/3);
  inj.on_access();
  inj.on_access();
  inj.on_access();
  EXPECT_THROW(inj.on_access(), WatchdogExceeded);
}

TEST(Injector, TaskCrashThrowsInjectedCrash) {
  Injector inj(cfg(FaultKind::TaskCrash, 1.0));
  EXPECT_THROW(inj.on_access(), InjectedCrash);
}

TEST(Injector, ExportStatsCarriesFaultCounters) {
  Injector inj(cfg(FaultKind::ToggleDrop, 1.0));
  bool out[2];
  inj.transform_toggle(true, out);
  StatSet s;
  inj.export_stats(s);
  EXPECT_EQ(s.get("fault.injected"), 1u);
  EXPECT_EQ(s.get("fault.toggles_dropped"), 1u);
  EXPECT_EQ(s.get("fault.counters_corrupted"), 0u);
}

// --- corrupted state must be observable through integrity checks ---------

TEST(Integrity, MatDetectsInjectedCounterCorruption) {
  hw::Mat mat(hw::MatConfig{.entries = 16, .macro_block_size = 1024,
                            .counter_max = 255, .decay_interval = 0});
  EXPECT_TRUE(mat.check_integrity());
  Injector inj(cfg(FaultKind::CounterFlip, 1.0));
  mat.set_fault(&inj);
  // Rate-1 flips with a guard bit: within a few dozen touches one lands
  // above counter_max (deterministic for this seed).
  for (int i = 0; i < 64 && mat.check_integrity(); ++i) mat.touch(0x1000);
  EXPECT_FALSE(mat.check_integrity());
}

TEST(Integrity, SldtDetectsInjectedCounterCorruption) {
  hw::Sldt sldt(hw::SldtConfig{});
  EXPECT_TRUE(sldt.check_integrity());
  Injector inj(cfg(FaultKind::CounterFlip, 1.0));
  sldt.set_fault(&inj);
  for (int i = 0; i < 256 && sldt.check_integrity(); ++i)
    sldt.note(static_cast<Addr>(i) * 32);
  EXPECT_FALSE(sldt.check_integrity());
}

// --- controller degradation ----------------------------------------------

hw::BypassSchemeConfig test_bypass_config() {
  hw::BypassSchemeConfig c;
  c.mat.decay_interval = 0;
  return c;
}

TEST(Degradation, FaultBudgetDemotesToSafeMode) {
  hw::BypassScheme scheme(test_bypass_config());
  hw::Controller ctl(&scheme);
  Injector inj(cfg(FaultKind::ToggleDrop, 1.0));
  ctl.set_fault(&inj);
  ctl.set_degrade_policy(hw::DegradePolicy{.fault_budget = 2});
  ctl.force(true);

  ctl.toggle(true);   // dropped, injected = 1
  ctl.toggle(false);  // dropped, injected = 2
  EXPECT_FALSE(ctl.degraded());
  ctl.toggle(true);  // injected = 3 > budget -> demote
  EXPECT_TRUE(ctl.degraded());
  EXPECT_EQ(ctl.degrade_reason(), hw::DegradeReason::FaultBudget);
  EXPECT_EQ(ctl.degradations(), 1u);
  EXPECT_FALSE(scheme.active()) << "safe mode forces the scheme OFF";

  // Sticky: markers and force(true) cannot re-enable a degraded run.
  ctl.toggle(true);
  EXPECT_FALSE(scheme.active());
  ctl.force(true);
  EXPECT_FALSE(scheme.active());
  EXPECT_EQ(ctl.degradations(), 1u) << "demotion happens exactly once";
}

struct BrokenScheme final : memsys::HwScheme {
  std::string_view name() const override { return "broken"; }
  std::unique_ptr<memsys::HwScheme> clone() const override {
    return std::make_unique<BrokenScheme>(*this);
  }
  bool check_integrity() const override { return false; }
  void on_access(memsys::Level, Addr, bool, bool) override {}
  std::optional<AuxHit> service_miss(memsys::Level, Addr, bool) override {
    return std::nullopt;
  }
  memsys::FillDecision fill_decision(memsys::Level, Addr,
                                     std::optional<Addr>) override {
    return memsys::FillDecision::Fill;
  }
  void on_bypassed(memsys::Level, Addr, bool) override {}
  void on_eviction(memsys::Level, Addr, bool) override {}
  std::uint32_t fetch_width(memsys::Level, Addr) override { return 1; }
  void export_stats(StatSet&) const override {}
};

TEST(Degradation, PeriodicIntegrityCheckDemotes) {
  BrokenScheme scheme;
  hw::Controller ctl(&scheme);
  ctl.set_degrade_policy(
      hw::DegradePolicy{.integrity_checks = true, .check_interval = 4});
  ctl.force(true);
  for (int i = 0; i < 3; ++i) ctl.tick();
  EXPECT_FALSE(ctl.degraded());
  ctl.tick();  // 4th access -> periodic check -> integrity fails
  EXPECT_TRUE(ctl.degraded());
  EXPECT_EQ(ctl.degrade_reason(), hw::DegradeReason::IntegrityCheck);
  EXPECT_FALSE(scheme.active());
}

TEST(Degradation, EmitsStructuredTraceEvent) {
  BrokenScheme scheme;
  hw::Controller ctl(&scheme);
  trace::Recording rec;
  trace::Recorder recorder(rec, 1000);
  ctl.set_trace(&recorder);
  ctl.set_degrade_policy(
      hw::DegradePolicy{.integrity_checks = true, .check_interval = 1});
  ctl.tick();
  ASSERT_TRUE(ctl.degraded());

  ASSERT_FALSE(rec.events.empty());
  const trace::Event& e = rec.events.back();
  EXPECT_EQ(e.kind, trace::EventKind::Degradation);
  EXPECT_EQ(e.addr,
            static_cast<Addr>(hw::DegradeReason::IntegrityCheck));
  const std::string line =
      trace::events_jsonl(rec, {.workload = "w", .version = "v"});
  EXPECT_NE(line.find("\"kind\":\"degradation\""), std::string::npos);
  EXPECT_NE(line.find("\"reason\":\"integrity\""), std::string::npos);
}

TEST(Degradation, StatKeysOnlyExistWhenPolicyArmed) {
  hw::BypassScheme scheme(test_bypass_config());
  hw::Controller plain(&scheme);
  StatSet s;
  plain.export_stats(s);
  EXPECT_EQ(s.all().count("controller.degradations"), 0u);
  EXPECT_EQ(s.all().count("controller.safe_mode"), 0u);

  hw::Controller armed(&scheme);
  armed.set_degrade_policy(hw::DegradePolicy{.fault_budget = 1});
  StatSet t;
  armed.export_stats(t);
  EXPECT_EQ(t.all().count("controller.degradations"), 1u);
  EXPECT_EQ(t.all().count("controller.safe_mode"), 1u);
}

// --- end-to-end run hooks ------------------------------------------------

TEST(RunVersion, WatchdogKillsRunawaySimulation) {
  const core::MachineConfig m = core::base_machine();
  const auto& w = workloads::all_workloads().front();
  core::RunOptions opt;
  opt.watchdog_accesses = 100;
  EXPECT_THROW(core::run_version(w, m, core::Version::Base, opt),
               WatchdogExceeded);
}

TEST(RunVersion, FaultCampaignReportsInjections) {
  const core::MachineConfig m = core::base_machine();
  const auto& w = workloads::all_workloads().front();
  core::RunOptions opt;
  opt.fault = cfg(FaultKind::CounterFlip, 0.01);
  opt.degrade = hw::DegradePolicy{.integrity_checks = true,
                                  .check_interval = 256};
  const core::RunResult r =
      core::run_version(w, m, core::Version::Selective, opt);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_EQ(r.stats.get("fault.injected"), r.faults_injected);
  // Identical campaign, identical result: the whole model is seed-driven.
  const core::RunResult again =
      core::run_version(w, m, core::Version::Selective, opt);
  EXPECT_EQ(r.cycles, again.cycles);
  EXPECT_EQ(r.faults_injected, again.faults_injected);
  EXPECT_EQ(r.degradations, again.degradations);
}

TEST(RunVersion, UnfaultedRunExportsNoFaultKeys) {
  const core::MachineConfig m = core::base_machine();
  const auto& w = workloads::all_workloads().front();
  const core::RunResult r =
      core::run_version(w, m, core::Version::Selective, core::RunOptions{});
  for (const auto& [key, value] : r.stats.all()) {
    EXPECT_EQ(key.rfind("fault.", 0), std::string::npos) << key;
    EXPECT_NE(key, "controller.degradations");
    EXPECT_NE(key, "controller.safe_mode");
  }
}

// --- FailureReport serializations ----------------------------------------

FailureReport sample_report() {
  FailureReport r;
  r.cells.push_back({"Swim", "base", CellOutcome::Status::Ok, 1, 11, 0, 0,
                     ""});
  r.cells.push_back({"Swim", "selective", CellOutcome::Status::Degraded, 1,
                     22, 9, 1, ""});
  r.cells.push_back({"Chaos", "combined", CellOutcome::Status::Failed, 3, 33,
                     0, 0, "boom, with \"quotes\""});
  return r;
}

TEST(FailureReportFormat, CountsAndTable) {
  const FailureReport r = sample_report();
  EXPECT_EQ(r.failed_cells(), 1u);
  EXPECT_EQ(r.degraded_cells(), 1u);
  const std::string t = r.table();
  EXPECT_NE(t.find("Chaos"), std::string::npos);
  EXPECT_NE(t.find("failed"), std::string::npos);
  EXPECT_NE(t.find("degraded"), std::string::npos);
}

TEST(FailureReportFormat, CsvEscapesAndRoundTripsFields) {
  const std::string csv = sample_report().csv();
  EXPECT_EQ(csv.rfind("workload,version,status,attempts,fault_seed,"
                      "faults_injected,degradations,error\n", 0), 0u);
  EXPECT_NE(csv.find("Swim,selective,degraded,1,22,9,1,"), std::string::npos);
  // RFC 4180: embedded comma and quotes force a quoted, doubled field.
  EXPECT_NE(csv.find("\"boom, with \"\"quotes\"\"\""), std::string::npos);
}

TEST(FailureReportFormat, JsonlOneObjectPerCell) {
  const std::string j = sample_report().jsonl();
  EXPECT_NE(j.find("\"workload\":\"Chaos\""), std::string::npos);
  EXPECT_NE(j.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(j.find("\"error\":\"boom, with \\\"quotes\\\"\""),
            std::string::npos);
  std::size_t lines = 0;
  for (char c : j) lines += c == '\n';
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace selcache::fault
