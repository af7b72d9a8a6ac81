// Unit tests for the hardware locality schemes: MAT, SLDT, bypass buffer,
// bypass scheme, victim scheme, ON/OFF controller.
#include <gtest/gtest.h>

#include "hw/bypass_scheme.h"
#include "hw/controller.h"
#include "hw/victim_scheme.h"
#include "trace/recorder.h"

namespace selcache::hw {
namespace {

using memsys::FillDecision;
using memsys::Level;

TEST(Mat, FrequencyAccumulates) {
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 0});
  EXPECT_EQ(m.frequency(0), 0u);
  for (int i = 0; i < 5; ++i) m.touch(100 + i);  // same macro-block
  EXPECT_EQ(m.frequency(0), 5u);
  EXPECT_EQ(m.frequency(512), 5u);   // same 1 KB macro-block
  EXPECT_EQ(m.frequency(1024), 0u);  // next macro-block
}

TEST(Mat, DirectMappedReplacementResets) {
  Mat m(MatConfig{.entries = 4, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 0});
  m.touch(0);  // macro-block 0 -> entry 0
  m.touch(0);
  m.touch(4 * 1024);  // macro-block 4 -> entry 0 too: replaces
  EXPECT_EQ(m.replacements(), 1u);
  EXPECT_EQ(m.frequency(4 * 1024), 1u);
  EXPECT_EQ(m.frequency(0), 0u);  // history lost
}

TEST(Mat, DecayHalvesAllCounters) {
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 8});
  for (int i = 0; i < 7; ++i) m.touch(0);
  EXPECT_EQ(m.frequency(0), 7u);
  m.touch(0);  // 8th touch triggers decay after increment
  EXPECT_EQ(m.frequency(0), 4u);
  EXPECT_EQ(m.decays(), 1u);
}

TEST(Mat, PunishDecrements) {
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 0});
  for (int i = 0; i < 4; ++i) m.touch(0);
  m.punish(0);
  EXPECT_EQ(m.frequency(0), 3u);
  m.punish(2048);  // untracked macro-block: no effect
  EXPECT_EQ(m.frequency(2048), 0u);
}

TEST(Mat, CounterSaturates) {
  Mat m(MatConfig{.entries = 4, .macro_block_size = 64, .counter_max = 3,
                  .decay_interval = 0});
  for (int i = 0; i < 10; ++i) m.touch(0);
  EXPECT_EQ(m.frequency(0), 3u);
}

TEST(Sldt, DetectsSequentialStream) {
  Sldt s(SldtConfig{.entries = 64, .block_size = 32, .macro_block_size = 1024,
                    .counter_entries = 64, .counter_max = 15,
                    .counter_initial = 0});
  EXPECT_FALSE(s.spatial(0));
  for (Addr a = 0; a < 32 * 40; a += 32) s.note(a);
  EXPECT_TRUE(s.spatial(32 * 20));
  EXPECT_GT(s.spatial_hits(), 30u);
}

TEST(Sldt, IsolatedAccessesDecayCounter) {
  Sldt s(SldtConfig{.entries = 64, .block_size = 32, .macro_block_size = 1024,
                    .counter_entries = 4, .counter_max = 15,
                    .counter_initial = 8});
  // Far-apart touches within one macro-block counter bucket.
  for (int i = 0; i < 12; ++i) s.note(static_cast<Addr>(i) * 64 * 1024);
  EXPECT_FALSE(s.spatial(0));
}

TEST(Sldt, RetouchingSameBlockNeutral) {
  Sldt s(SldtConfig{.entries = 64, .block_size = 32, .macro_block_size = 1024,
                    .counter_entries = 4, .counter_max = 15,
                    .counter_initial = 8});
  for (int i = 0; i < 20; ++i) s.note(0);  // same block repeatedly
  EXPECT_EQ(s.spatial_hits(), 0u);
  EXPECT_EQ(s.spatial_misses(), 1u);  // only the first isolated touch
}

TEST(BypassBuffer, LruAtBlockGranularity) {
  BypassBuffer buf(2, 32);
  buf.insert(0x00, false);
  buf.insert(0x40, false);
  EXPECT_TRUE(buf.access(0x1f, false));  // same 32B block as 0x00
  buf.insert(0x80, true);                // displaces 0x40 (LRU)
  EXPECT_FALSE(buf.probe(0x40));
  EXPECT_TRUE(buf.probe(0x00));
  EXPECT_TRUE(buf.probe(0x80));
  EXPECT_EQ(buf.occupancy(), 2u);
}

TEST(BypassBuffer, DirtyDisplacementCountsWriteback) {
  BypassBuffer buf(1, 32);
  buf.insert(0x00, true);
  buf.insert(0x40, false);
  EXPECT_EQ(buf.writebacks(), 1u);
}

TEST(BypassBuffer, WriteHitMarksDirty) {
  BypassBuffer buf(2, 32);
  buf.insert(0x00, false);
  EXPECT_TRUE(buf.access(0x00, /*is_write=*/true));
  buf.insert(0x40, false);
  buf.insert(0x80, false);  // displaces 0x00, now dirty
  EXPECT_EQ(buf.writebacks(), 1u);
}

BypassSchemeConfig test_bypass_config() {
  BypassSchemeConfig cfg;
  cfg.mat.decay_interval = 0;
  cfg.mat.counter_max = 255;
  cfg.bypass_bias = 1.5;
  cfg.min_victim_freq = 4;
  return cfg;
}

TEST(BypassScheme, FillsWhenNoVictim) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  EXPECT_EQ(s.fill_decision(Level::L1D, 0, std::nullopt), FillDecision::Fill);
}

TEST(BypassScheme, BypassesColdIncomingAgainstHotVictim) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  const Addr hot = 0, cold = 64 * 1024;
  for (int i = 0; i < 100; ++i) s.on_access(Level::L1D, hot, false, true);
  // cold incoming (freq 0) vs hot victim (freq 100): bypass.
  EXPECT_EQ(s.fill_decision(Level::L1D, cold, hot), FillDecision::Bypass);
  EXPECT_EQ(s.bypasses(), 1u);
  // hot incoming vs cold victim: fill.
  EXPECT_EQ(s.fill_decision(Level::L1D, hot, cold), FillDecision::Fill);
}

TEST(BypassScheme, NeedsMarginAndFloor) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  const Addr a = 0, b = 64 * 1024;
  for (int i = 0; i < 3; ++i) s.on_access(Level::L1D, a, false, true);
  // victim freq 3 < floor 4: no bypass even though incoming is colder.
  EXPECT_EQ(s.fill_decision(Level::L1D, b, a), FillDecision::Fill);
  // victim 13 vs incoming 10: above the floor but below the 1.5x margin.
  for (int i = 0; i < 10; ++i) s.on_access(Level::L1D, a, false, true);
  for (int i = 0; i < 10; ++i) s.on_access(Level::L1D, b, false, true);
  EXPECT_EQ(s.fill_decision(Level::L1D, b, a), FillDecision::Fill);
}

TEST(BypassScheme, BypassedDataServedFromBuffer) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  EXPECT_EQ(s.service_miss(Level::L1D, 0x123, false), std::nullopt);
  s.on_bypassed(Level::L1D, 0x123, false);
  auto aux = s.service_miss(Level::L1D, 0x123, false);
  ASSERT_TRUE(aux.has_value());
  EXPECT_FALSE(aux->promote);  // bypassed data never enters the main cache
}

TEST(BypassScheme, L2AlwaysFills) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  EXPECT_EQ(s.fill_decision(Level::L2, 0, Addr{128}), FillDecision::Fill);
  EXPECT_EQ(s.service_miss(Level::L2, 0, false), std::nullopt);
}

TEST(BypassScheme, FetchWidthFollowsSldt) {
  BypassScheme s(test_bypass_config());
  s.set_active(true);
  // Build up a sequential stream so the SLDT flags spatial locality.
  for (Addr a = 0; a < 32 * 64; a += 32) s.on_access(Level::L1D, a, false, true);
  EXPECT_EQ(s.fetch_width(Level::L1D, 32 * 32), 2u);
  EXPECT_EQ(s.fetch_width(Level::L2, 32 * 32), 1u);
}

TEST(VictimScheme, CapturesEvictionsAndSwapsBack) {
  VictimScheme s(VictimSchemeConfig{.l1_entries = 4, .l2_entries = 4,
                                    .l1_block_size = 32, .l2_block_size = 128,
                                    .swap_latency = 1});
  s.set_active(true);
  EXPECT_EQ(s.service_miss(Level::L1D, 0x100, false), std::nullopt);
  s.on_eviction(Level::L1D, 0x100, /*dirty=*/true);
  auto aux = s.service_miss(Level::L1D, 0x100, false);
  ASSERT_TRUE(aux.has_value());
  EXPECT_TRUE(aux->promote);
  EXPECT_TRUE(aux->dirty);
  EXPECT_EQ(aux->extra_latency, 1u);
  // Extraction removed it: a second probe misses.
  EXPECT_EQ(s.service_miss(Level::L1D, 0x100, false), std::nullopt);
}

TEST(VictimScheme, LevelsAreSeparate) {
  VictimSchemeConfig cfg;
  VictimScheme s(cfg);
  s.set_active(true);
  s.on_eviction(Level::L1D, 0x1000, false);
  EXPECT_EQ(s.service_miss(Level::L2, 0x1000, false), std::nullopt);
  EXPECT_TRUE(s.service_miss(Level::L1D, 0x1000, false).has_value());
}

TEST(VictimScheme, NeverBypasses) {
  VictimScheme s(VictimSchemeConfig{});
  s.set_active(true);
  EXPECT_EQ(s.fill_decision(Level::L1D, 0, Addr{64}), FillDecision::Fill);
  EXPECT_EQ(s.fetch_width(Level::L1D, 0), 1u);
}

TEST(Controller, TogglesAndCounts) {
  VictimScheme s(VictimSchemeConfig{});
  Controller c(&s);
  EXPECT_FALSE(c.active());
  c.toggle(true);
  EXPECT_TRUE(c.active());
  c.toggle(true);  // redundant: executed but not effective
  c.toggle(false);
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.toggles_executed(), 3u);
  EXPECT_EQ(c.effective_toggles(), 2u);
}

TEST(Controller, NullSchemeIsSafe) {
  Controller c(nullptr);
  c.toggle(true);
  c.force(true);
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.toggles_executed(), 1u);
}

TEST(Controller, ForceOverridesState) {
  BypassScheme s(test_bypass_config());
  Controller c(&s);
  c.force(true);
  EXPECT_TRUE(c.active());
  EXPECT_EQ(c.toggles_executed(), 0u);  // force is not an instruction
}

TEST(Mat, CountsTouchesEvenWithDecayDisabled) {
  // The energy model charges per table update, so touches must be counted
  // even when decay_interval = 0 skips the decay bookkeeping entirely.
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 0});
  for (int i = 0; i < 10; ++i) m.touch(i * 64);
  EXPECT_EQ(m.touches(), 10u);
  StatSet s;
  m.export_stats(s);
  EXPECT_EQ(s.get("mat.touches"), 10u);
  EXPECT_EQ(s.get("mat.decays"), 0u);
}

TEST(Mat, EpochSnapshotsAccumulateDeltasNotTotals) {
  // The epoch recorder snapshots cumulative export_stats repeatedly; the
  // aggregate must equal the latest cumulative value, not the sum of every
  // snapshot (which plain merge() would produce).
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 4});
  StatSet agg, wrong;

  for (int i = 0; i < 8; ++i) m.touch(0);  // epoch 1: 2 decays
  StatSet cum1;
  m.export_stats(cum1);
  agg.merge_snapshot(cum1, "");
  wrong.merge(cum1, "");
  EXPECT_EQ(agg.get("mat.decays"), 2u);

  for (int i = 0; i < 4; ++i) m.touch(0);  // epoch 2: 1 more decay
  StatSet cum2;
  m.export_stats(cum2);
  EXPECT_EQ(cum2.delta_from(cum1).get("mat.decays"), 1u);
  EXPECT_EQ(cum2.delta_from(cum1).get("mat.touches"), 4u);
  agg.merge_snapshot(cum2, "");
  wrong.merge(cum2, "");

  EXPECT_EQ(agg.get("mat.decays"), m.decays());
  EXPECT_EQ(agg.get("mat.touches"), m.touches());
  EXPECT_EQ(wrong.get("mat.decays"), 5u);  // the double-count this replaces
}

TEST(Mat, DecayEmitsTraceEvent) {
  trace::Recording out;
  trace::Recorder rec(out, 1000);
  Mat m(MatConfig{.entries = 16, .macro_block_size = 1024, .counter_max = 255,
                  .decay_interval = 4});
  m.set_trace(&rec);
  for (int i = 0; i < 8; ++i) m.touch(0);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].kind, trace::EventKind::MatDecay);
  EXPECT_EQ(out.events[1].kind, trace::EventKind::MatDecay);
}

TEST(Controller, EmitsToggleEventsWithRegionProvenance) {
  trace::Recording out;
  trace::Recorder rec(out, 1000);
  VictimScheme s(VictimSchemeConfig{});
  Controller c(&s);
  c.set_trace(&rec);
  c.force(true);      // synthetic event so the timeline knows initial state
  c.toggle(false, 7);  // instruction toggle carries its source region
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].kind, trace::EventKind::Toggle);
  EXPECT_TRUE(out.events[0].on);
  EXPECT_EQ(out.events[0].region, -1);  // force has no region provenance
  EXPECT_EQ(out.events[1].kind, trace::EventKind::Toggle);
  EXPECT_FALSE(out.events[1].on);
  EXPECT_EQ(out.events[1].region, 7);
}

TEST(BypassScheme, BypassEmitsTraceEventWithAddress) {
  trace::Recording out;
  trace::Recorder rec(out, 1000);
  BypassScheme s(test_bypass_config());
  s.set_trace(&rec);
  s.set_active(true);
  const Addr hot = 0, cold = 64 * 1024;
  for (int i = 0; i < 100; ++i) s.on_access(Level::L1D, hot, false, true);
  EXPECT_EQ(s.fill_decision(Level::L1D, cold, hot), FillDecision::Bypass);
  ASSERT_FALSE(out.events.empty());
  const trace::Event& e = out.events.back();
  EXPECT_EQ(e.kind, trace::EventKind::BypassDecision);
  EXPECT_EQ(e.addr, cold);
  EXPECT_EQ(e.level, 0u);  // L1D
}

TEST(VictimScheme, PromotionEmitsTraceEvent) {
  trace::Recording out;
  trace::Recorder rec(out, 1000);
  VictimScheme s(VictimSchemeConfig{});
  s.set_trace(&rec);
  s.set_active(true);
  s.on_eviction(Level::L1D, 0x400, false);
  auto aux = s.service_miss(Level::L1D, 0x400, false);
  ASSERT_TRUE(aux.has_value());
  EXPECT_TRUE(aux->promote);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].kind, trace::EventKind::VictimPromotion);
  EXPECT_EQ(out.events[0].addr, 0x400u);
}

/// The names a command line or run spec may hold map back to the kinds
/// to_string names; the empty name is bypass, and no other name resolves.
TEST(SchemeKind, ByNameRoundTripsWithToStringAndRejectsOtherNames) {
  for (SchemeKind k :
       {SchemeKind::Bypass, SchemeKind::Victim, SchemeKind::None})
    EXPECT_EQ(scheme_by_name(to_string(k)), k) << to_string(k);
  EXPECT_EQ(scheme_by_name(""), SchemeKind::Bypass);
  for (const char* n : {"prefetch", "bypass+victim", "Bypass", "victim ", "?"})
    EXPECT_EQ(scheme_by_name(n), std::nullopt) << n;
}

}  // namespace
}  // namespace selcache::hw
