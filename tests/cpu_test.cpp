// Tests for the branch predictor and the interval timing model.
#include <gtest/gtest.h>

#include "cpu/timing_model.h"
#include "hw/bypass_scheme.h"
#include "hw/victim_scheme.h"
#include "support/rng.h"

namespace selcache::cpu {
namespace {

TEST(Bimodal, LearnsAlwaysTaken) {
  BimodalPredictor p(64);
  for (int i = 0; i < 100; ++i) p.predict_and_train(0x40, true);
  // After warmup the always-taken branch is always predicted.
  EXPECT_GT(p.accuracy(), 0.95);
}

TEST(Bimodal, LoopExitMispredictsOncePerTrip) {
  BimodalPredictor p(64);
  std::uint64_t wrong = 0;
  for (int trip = 0; trip < 50; ++trip) {
    for (int i = 0; i < 9; ++i)
      if (!p.predict_and_train(0x80, true)) ++wrong;
    if (!p.predict_and_train(0x80, false)) ++wrong;  // exit
  }
  // Roughly one mispredict per loop exit once the counter saturates taken.
  EXPECT_LE(wrong, 60u);
  EXPECT_GE(wrong, 45u);
}

TEST(Bimodal, DistinctPcsDistinctCounters) {
  BimodalPredictor p(1024);
  for (int i = 0; i < 10; ++i) {
    p.predict_and_train(0x100, true);
    p.predict_and_train(0x200, false);
  }
  // Both learned their own direction: next predictions are correct.
  EXPECT_TRUE(p.predict_and_train(0x100, true));
  EXPECT_TRUE(p.predict_and_train(0x200, false));
}

/// The table is indexed by the word address modulo its size, a power of
/// two or not: in a 3-entry table words 0 and 3 share a counter and word 1
/// does not; in a 4-entry one words 0 and 4 share one.
TEST(Bimodal, TableSizeWrapsTheIndex) {
  for (const std::uint32_t entries : {3u, 4u}) {
    SCOPED_TRACE("entries=" + std::to_string(entries));
    BimodalPredictor p(entries);
    for (int i = 0; i < 4; ++i) p.predict_and_train(0x0, false);
    // Trained not-taken through the shared counter; untouched counters
    // still start weakly taken.
    EXPECT_TRUE(p.predict_and_train(4 * entries, false));
    EXPECT_TRUE(p.predict_and_train(4 * (entries + 1), true));
    EXPECT_FALSE(p.predict_and_train(4 * (2 * entries - 1), false));
  }
}

struct Machine {
  memsys::Hierarchy hierarchy;
  hw::Controller controller;
  TimingModel cpu;

  explicit Machine(CpuConfig cfg = {})
      : hierarchy(memsys::HierarchyConfig{}),
        controller(nullptr),
        cpu(cfg, hierarchy, controller) {}
};

TEST(Timing, IssueWidthBoundsComputeThroughput) {
  Machine m;
  m.cpu.compute(400);
  EXPECT_EQ(m.cpu.cycles(), 100u);  // width 4
  EXPECT_EQ(m.cpu.instructions(), 400u);
}

TEST(Timing, IssueRoundsUp) {
  Machine m;
  m.cpu.compute(5);
  EXPECT_EQ(m.cpu.cycles(), 2u);
}

TEST(Timing, L1HitsAddNoStall) {
  Machine m;
  m.cpu.load(0);  // cold: stalls
  const Cycle after_cold = m.cpu.cycles();
  for (int i = 0; i < 100; ++i) m.cpu.load(0);
  // 100 more instructions at width 4 = 25 issue cycles, no extra stall.
  EXPECT_EQ(m.cpu.cycles(), after_cold + 25);
}

TEST(Timing, DependentMissesSerialize) {
  CpuConfig cfg;
  Machine dep(cfg), indep(cfg);
  // Two cold misses to far-apart lines.
  dep.cpu.load(0, /*dependent=*/true);
  dep.cpu.load(1 << 20, /*dependent=*/true);
  indep.cpu.load(0, false);
  indep.cpu.load(1 << 20, false);
  // The dependent chain must be strictly slower than the overlapped pair.
  EXPECT_GT(dep.cpu.cycles(), indep.cpu.cycles());
  EXPECT_EQ(dep.cpu.memory_stall_cycles(),
            dep.cpu.cycles() - 1);  // 2 instrs = 1 issue cycle
}

TEST(Timing, OverlapCapturesMlp) {
  Machine m;
  // A burst of independent misses: the first pays, the second overlaps at
  // the bandwidth floor.
  m.cpu.load(0 * (1 << 20), false);
  const Cycle first = m.cpu.memory_stall_cycles();
  m.cpu.load(1 * (1 << 20), false);
  const Cycle second = m.cpu.memory_stall_cycles() - first;
  EXPECT_GT(first, 50u);  // cold: TLB + memory exposed
  EXPECT_LE(second, m.cpu.config().overlap_bandwidth_cycles);
}

TEST(Timing, MispredictChargesPenalty) {
  Machine m;
  // Train not-taken, then surprise it.
  for (int i = 0; i < 8; ++i) m.cpu.branch(0x10, false);
  const Cycle before = m.cpu.branch_penalty_cycles();
  m.cpu.branch(0x10, true);
  EXPECT_EQ(m.cpu.branch_penalty_cycles() - before,
            m.cpu.config().mispredict_penalty);
}

TEST(Timing, ToggleCostsInstructionAndCycle) {
  Machine m;
  m.cpu.toggle(true);
  EXPECT_EQ(m.cpu.instructions(), 1u);
  EXPECT_GE(m.cpu.cycles(), 2u);  // 1 issue + 1 toggle stall
}

TEST(Timing, TogglesDriveController) {
  memsys::Hierarchy h((memsys::HierarchyConfig()));
  hw::VictimScheme scheme((hw::VictimSchemeConfig()));
  hw::Controller ctl(&scheme);
  TimingModel cpu(CpuConfig{}, h, ctl);
  cpu.toggle(true);
  EXPECT_TRUE(ctl.active());
  cpu.toggle(false);
  EXPECT_FALSE(ctl.active());
  EXPECT_EQ(ctl.toggles_executed(), 2u);
}

TEST(Timing, IFetchTouchesICache) {
  Machine m;
  m.cpu.touch_code(0x400000, 8);  // 32 bytes: one I-block
  EXPECT_EQ(m.hierarchy.l1i().demand_stats().accesses(), 1u);
  m.cpu.touch_code(0x400000, 16);  // 64 bytes: two blocks, first now hot
  EXPECT_EQ(m.hierarchy.l1i().demand_stats().hits, 1u);
}

TEST(Timing, IFetchCanBeDisabled) {
  CpuConfig cfg;
  cfg.model_ifetch = false;
  Machine m(cfg);
  m.cpu.touch_code(0x400000, 8);
  EXPECT_EQ(m.hierarchy.l1i().demand_stats().accesses(), 0u);
}

TEST(Timing, MonotoneInMemoryLatency) {
  // Property: raising memory latency cannot make any access trace faster.
  auto run = [](Cycle mem_lat) {
    memsys::HierarchyConfig hc;
    hc.mem.access_latency = mem_lat;
    memsys::Hierarchy h(hc);
    hw::Controller ctl(nullptr);
    TimingModel cpu(CpuConfig{}, h, ctl);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
      cpu.load(rng.below(1 << 24), rng.chance(0.2));
    return cpu.cycles();
  };
  const Cycle c100 = run(100);
  const Cycle c200 = run(200);
  const Cycle c400 = run(400);
  EXPECT_LT(c100, c200);
  EXPECT_LT(c200, c400);
}

/// A machine with the bypass scheme attached, its controller driven by the
/// stream's toggles, pricing `cfg` at each of `lats`.
struct BypassMachine {
  memsys::Hierarchy hierarchy;
  hw::BypassScheme scheme;
  hw::Controller controller;
  TimingModel cpu;

  BypassMachine(Cycle mem_latency, const std::vector<Cycle>& lats,
                const CpuConfig& cfg = {})
      : hierarchy(with_mem_latency(mem_latency)),
        scheme(hw::BypassSchemeConfig{}),
        controller(&scheme),
        cpu(cfg, lats, hierarchy, controller) {
    hierarchy.attach_hw(&scheme);
  }

  static memsys::HierarchyConfig with_mem_latency(Cycle lat) {
    memsys::HierarchyConfig hc;
    hc.mem.access_latency = lat;
    return hc;
  }

  StatSet stats(std::size_t point) const {
    StatSet s;
    hierarchy.export_stats(s);
    controller.export_stats(s);
    cpu.export_stats(s, point);
    return s;
  }
};

/// A seeded mix of every entry point: hot-set hits, far misses (dependent
/// and independent), a sequential stream, stores, I-fetch spans, branches,
/// compute runs and ON/OFF toggles. `ops` ops from `rng`, continuing the
/// sequential stream at `*stream`.
template <typename Model>
void drive_random_stream(Model& cpu, Rng& rng, int ops, Addr* stream) {
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.below(100);
    const Addr hot = 0x10000 + rng.below(8 * 1024);
    const Addr far = 0x4000000 + rng.below(4 << 20);
    if (r < 25) {
      cpu.load(hot, rng.chance(0.3));
    } else if (r < 40) {
      cpu.load(far, rng.chance(0.5));
    } else if (r < 50) {
      cpu.load(*stream, false);
      *stream += 8;
    } else if (r < 60) {
      cpu.store(rng.chance(0.5) ? hot : far);
    } else if (r < 72) {
      cpu.touch_code(0x400000 + rng.below(256 * 1024),
                     static_cast<std::uint32_t>(rng.below(24)));
    } else if (r < 88) {
      cpu.branch(0x400000 + 4 * rng.below(4096), rng.chance(0.7));
    } else if (r < 96) {
      cpu.compute(rng.below(8) + 1);
    } else {
      cpu.toggle(rng.chance(0.6), static_cast<std::int32_t>(rng.range(-1, 7)));
    }
  }
}

void drive_random_stream(TimingModel& cpu) {
  Rng rng(2024);
  Addr stream = 0x100000;
  drive_random_stream(cpu, rng, 60000, &stream);
}

TEST(Timing, OneModelPricesEveryLatencyLikeSeparateModels) {
  // The priced model's own hierarchy sits at 200 cycles, so two points
  // reprice each fetch downwards and one upwards.
  const std::vector<Cycle> lats = {100, 150, 200, 300};
  BypassMachine priced(200, lats);
  drive_random_stream(priced.cpu);
  ASSERT_EQ(priced.cpu.points(), lats.size());

  for (std::size_t i = 0; i < lats.size(); ++i) {
    SCOPED_TRACE("mem latency " + std::to_string(lats[i]));
    BypassMachine solo(lats[i], {lats[i]});
    drive_random_stream(solo.cpu);
    EXPECT_EQ(priced.cpu.cycles(i), solo.cpu.cycles());
    EXPECT_EQ(priced.stats(i).all(), solo.stats(0).all());
  }

  // The stream exercised what the pricing has to get right.
  const StatSet s = priced.stats(0);
  EXPECT_GT(s.get("mem.reads"), 1000u);
  EXPECT_GT(s.get("bypass.bypasses"), 0u);
  EXPECT_GT(s.get("cpu.overlapped_misses"), 0u);
  EXPECT_GT(s.get("bpred.mispredicted"), 0u);
  EXPECT_GT(s.get("controller.effective_toggles"), 0u);
  for (std::size_t i = 1; i < lats.size(); ++i)
    EXPECT_LT(priced.cpu.cycles(i - 1), priced.cpu.cycles(i));
}

/// A machine without a scheme, pricing `cfg` at each of `lats`.
struct PlainMachine {
  memsys::Hierarchy hierarchy{memsys::HierarchyConfig{}};
  hw::Controller controller{nullptr};
  TimingModel cpu;

  explicit PlainMachine(const std::vector<Cycle>& lats,
                        const CpuConfig& cfg = {})
      : cpu(cfg, lats, hierarchy, controller) {}
};

/// The stream of `cpu`, with its markers counted at points [first, ...)
/// only, as a version that differs from cpu's by its markers runs them.
struct MarkedPoints {
  TimingModel& cpu;
  std::size_t first;

  void load(Addr a, bool dependent) { cpu.load(a, dependent); }
  void store(Addr a) { cpu.store(a); }
  void touch_code(Addr pc, std::uint32_t n) { cpu.touch_code(pc, n); }
  void branch(Addr pc, bool taken) { cpu.branch(pc, taken); }
  void compute(std::uint64_t n) { cpu.compute(n); }
  void toggle(bool, std::int32_t) { cpu.add_marker(first); }
};

StatSet cpu_stats(const TimingModel& cpu, std::size_t point) {
  StatSet s;
  cpu.export_stats(s, point);
  return s;
}

/// A version whose markers are all that set it apart (and whose scheme
/// stays out of the hierarchy) prices as extra points on another version's
/// model, then forks onto a copy of that machine: its points read exactly
/// as a model that ran the markers itself, before and after the fork.
TEST(Timing, MarkedPointsAndTheirForkPriceLikeAModelRunningTheMarkers) {
  const std::vector<Cycle> points = {100, 300};
  std::vector<Cycle> twice = points;
  twice.insert(twice.end(), points.begin(), points.end());
  PlainMachine twin(twice);
  PlainMachine solo(points);
  Rng twin_rng(7), solo_rng(7);
  Addr twin_stream = 0x100000, solo_stream = 0x100000;
  MarkedPoints marked{twin.cpu, points.size()};
  drive_random_stream(marked, twin_rng, 20000, &twin_stream);
  drive_random_stream(solo.cpu, solo_rng, 20000, &solo_stream);
  ASSERT_GT(solo.cpu.instructions(), twin.cpu.instructions(0));
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(twin.cpu.cycles(points.size() + i), solo.cpu.cycles(i));
    EXPECT_EQ(twin.cpu.instructions(points.size() + i),
              solo.cpu.instructions(i));
    EXPECT_EQ(cpu_stats(twin.cpu, points.size() + i).all(),
              cpu_stats(solo.cpu, i).all());
  }

  memsys::Hierarchy copy(twin.hierarchy);
  hw::Controller controller(nullptr);
  TimingModel forked(twin.cpu, points.size(), copy, controller);
  ASSERT_EQ(twin.cpu.points(), points.size());
  ASSERT_EQ(forked.points(), points.size());
  drive_random_stream(forked, twin_rng, 20000, &twin_stream);
  drive_random_stream(solo.cpu, solo_rng, 20000, &solo_stream);
  StatSet copy_stats, solo_stats;
  copy.export_stats(copy_stats);
  solo.hierarchy.export_stats(solo_stats);
  EXPECT_EQ(copy_stats.all(), solo_stats.all());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(forked.cycles(i), solo.cpu.cycles(i));
    EXPECT_EQ(forked.instructions(i), solo.cpu.instructions(i));
    EXPECT_EQ(cpu_stats(forked, i).all(), cpu_stats(solo.cpu, i).all());
  }
}

/// A ride in miniature: one stream side (the hierarchy's TLBs and L1I, and
/// the branch predictor) runs once per op, and every model gets its
/// outcome through the per-Simulation entry points, as core's FanOutModel
/// hands it out.
struct SharedStream {
  memsys::StreamSide memory{memsys::HierarchyConfig{}};
  BimodalPredictor bpred{CpuConfig{}.bimodal_entries};
  std::vector<TimingModel*> models;

  void compute(std::uint64_t n) {
    for (TimingModel* m : models) m->compute(n);
  }
  void load(Addr a, bool dependent) {
    const Cycle tlb = memory.translate(a);
    for (TimingModel* m : models) m->translated_load(a, tlb, dependent);
  }
  void store(Addr a) {
    const Cycle tlb = memory.translate(a);
    for (TimingModel* m : models) m->translated_store(a, tlb);
  }
  void branch(Addr pc, bool taken) {
    const bool correct = bpred.predict_and_train(pc, taken);
    for (TimingModel* m : models) m->predicted_branch(correct);
  }
  void toggle(bool on, std::int32_t region) {
    for (TimingModel* m : models) m->toggle(on, region);
  }
  void touch_code(Addr pc, std::uint32_t n) {
    const unsigned shift = log2_exact(memsys::HierarchyConfig{}.l1i.block_size);
    for_each_code_block(pc, n, shift, [&](Addr a) {
      const memsys::StreamSide::Fetch f = memory.fetch(a);
      for (TimingModel* m : models) m->fetched_block(a, f);
    });
  }
};

/// One predictor (and one stream side) shared by two models of k points
/// each prices every point as separate models with predictors of their own
/// do: each model pays its own mispredict penalty on the one verdict.
TEST(Timing, SharedPredictorPricesLikeSeparatePredictors) {
  CpuConfig slow_redirect;
  slow_redirect.mispredict_penalty = 7;
  const std::vector<Cycle> points = {100, 200, 300};

  SharedStream shared;
  memsys::HierarchyConfig hc;
  memsys::Hierarchy plain_h(hc, &shared.memory), bypass_h(hc, &shared.memory);
  hw::BypassScheme bypass((hw::BypassSchemeConfig()));
  bypass_h.attach_hw(&bypass);
  hw::Controller plain_ctl(nullptr), bypass_ctl(&bypass);
  TimingModel plain(slow_redirect, points, plain_h, plain_ctl, &shared.bpred);
  TimingModel bypassed(CpuConfig{}, points, bypass_h, bypass_ctl,
                       &shared.bpred);
  shared.models = {&plain, &bypassed};

  PlainMachine solo_plain(points, slow_redirect);
  BypassMachine solo_bypassed(hc.mem.access_latency, points);
  Rng shared_rng(11), plain_rng(11), bypass_rng(11);
  Addr shared_at = 0x100000, plain_at = 0x100000, bypass_at = 0x100000;
  drive_random_stream(shared, shared_rng, 40000, &shared_at);
  drive_random_stream(solo_plain.cpu, plain_rng, 40000, &plain_at);
  drive_random_stream(solo_bypassed.cpu, bypass_rng, 40000, &bypass_at);

  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(plain.cycles(i), solo_plain.cpu.cycles(i));
    EXPECT_EQ(cpu_stats(plain, i).all(), cpu_stats(solo_plain.cpu, i).all());
    EXPECT_EQ(bypassed.cycles(i), solo_bypassed.cpu.cycles(i));
    EXPECT_EQ(cpu_stats(bypassed, i).all(),
              cpu_stats(solo_bypassed.cpu, i).all());
  }
  StatSet a, b;
  bypass_h.export_stats(a);
  solo_bypassed.hierarchy.export_stats(b);
  EXPECT_EQ(a.all(), b.all());
  // Both verdicts occurred, and the models' penalties differ.
  const StatSet s = cpu_stats(plain, 1);
  EXPECT_GT(s.get("bpred.mispredicted"), 0u);
  EXPECT_GT(s.get("bpred.correct"), 0u);
  EXPECT_EQ(s.get("cpu.branch_penalty_cycles"),
            7 * s.get("bpred.mispredicted"));
  EXPECT_EQ(cpu_stats(bypassed, 1).get("cpu.branch_penalty_cycles"),
            CpuConfig{}.mispredict_penalty * s.get("bpred.mispredicted"));
  EXPECT_EQ(&plain.predictor(), &bypassed.predictor());
}

TEST(Timing, StatsExportComplete) {
  Machine m;
  m.cpu.load(0);
  m.cpu.branch(4, true);
  StatSet s;
  m.cpu.export_stats(s);
  EXPECT_EQ(s.get("cpu.instructions"), 2u);
  EXPECT_TRUE(s.has("cpu.mem_stall_cycles"));
  EXPECT_TRUE(s.has("bpred.correct"));
}

}  // namespace
}  // namespace selcache::cpu
