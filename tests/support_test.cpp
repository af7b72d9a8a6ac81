// Unit tests for the support library: RNG, saturating counters, stats,
// tables, bit utilities.
#include <gtest/gtest.h>

#include <set>

#include "support/bitutil.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/saturating.h"
#include "support/stats.h"
#include "support/table.h"

namespace selcache {
namespace {

TEST(Check, ThrowsWithLocation) {
  EXPECT_THROW(SELCACHE_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(SELCACHE_CHECK(1 == 1));
  try {
    SELCACHE_CHECK_MSG(false, "context");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
  }
}

TEST(Bitutil, Pow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(24));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(32), 5u);
  const Pow2 block(32, "block size");
  EXPECT_EQ(block.value(), 32u);
  EXPECT_EQ(127u >> block.shift(), 127u / 32);
  EXPECT_EQ(127u & block.mask(), 127u % 32);
  EXPECT_EQ(Pow2().value(), 1u);
  EXPECT_THROW(Pow2(0, "size"), std::logic_error);
  EXPECT_THROW(Pow2(24, "size"), std::logic_error);
}

TEST(Bitutil, AlignAndBlocks) {
  EXPECT_EQ(align_up(0, 4096), 0u);
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, PermutationIsBijection) {
  Rng r(11);
  const auto p = r.permutation(257);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, ZipfSkewsLow) {
  Rng r(13);
  std::uint64_t low = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i)
    if (r.zipf(1000, 0.9) < 100) ++low;
  // With strong skew, far more than 10% of draws land in the lowest decile.
  EXPECT_GT(low, kDraws / 4);
}

TEST(Rng, ZipfZeroThetaUniform) {
  Rng r(15);
  std::uint64_t low = 0;
  for (int i = 0; i < 20000; ++i)
    if (r.zipf(1000, 0.0) < 100) ++low;
  EXPECT_NEAR(static_cast<double>(low) / 20000.0, 0.1, 0.02);
}

TEST(Rng, ForkIndependent) {
  Rng a(3);
  Rng fork1 = a.fork(1);
  Rng a2(3);
  a2.next();  // fork consumed one draw
  // The fork stream should not equal the parent's continuation.
  EXPECT_NE(fork1.next(), a2.next());
}

TEST(Saturating, IncrementSaturates) {
  SaturatingCounter<std::uint32_t> c(3, 0);
  for (int i = 0; i < 10; ++i) c.increment();
  EXPECT_EQ(c.value(), 3u);
  EXPECT_TRUE(c.saturated());
}

TEST(Saturating, DecrementFloorsAtZero) {
  SaturatingCounter<std::uint32_t> c(7, 2);
  c.decrement(5);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Saturating, DecayHalves) {
  SaturatingCounter<std::uint32_t> c(255, 200);
  c.decay();
  EXPECT_EQ(c.value(), 100u);
}

TEST(Saturating, UpperHalf) {
  Counter2Bit c(3, 2);
  EXPECT_TRUE(c.upper_half());
  c.decrement();
  EXPECT_FALSE(c.upper_half());
}

// threshold() = ceil(max/2): exhaustive upper_half() partition over odd and
// even ceilings. The even-max cases are the regression: `value > max/2`
// would demote the midpoint (e.g. max=4, value=2).
struct UpperHalfCase {
  std::uint32_t max;
  std::uint32_t threshold;  ///< first value in the upper half
};

class SaturatingThreshold : public ::testing::TestWithParam<UpperHalfCase> {};

TEST_P(SaturatingThreshold, PartitionMatchesThreshold) {
  const UpperHalfCase p = GetParam();
  SaturatingCounter<std::uint32_t> c(p.max, 0);
  EXPECT_EQ(c.threshold(), p.threshold);
  for (std::uint32_t v = 0; v <= p.max; ++v) {
    c.reset(v);
    EXPECT_EQ(c.upper_half(), v >= p.threshold)
        << "max=" << p.max << " value=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddAndEvenMax, SaturatingThreshold,
    ::testing::Values(UpperHalfCase{1, 1},    // 1-bit
                      UpperHalfCase{2, 1},    // even: midpoint 1 included
                      UpperHalfCase{3, 2},    // 2-bit bimodal
                      UpperHalfCase{4, 2},    // even: midpoint 2 included
                      UpperHalfCase{15, 8},   // SLDT default
                      UpperHalfCase{16, 8},   // even SLDT-style ceiling
                      UpperHalfCase{255, 128}));

TEST(Saturating, ThresholdDoesNotOverflowAtTypeMax) {
  SaturatingCounter<std::uint8_t> c(255, 0);
  EXPECT_EQ(c.threshold(), 128);  // (max+1)/2 would wrap uint8 to 0
  c.reset(128);
  EXPECT_TRUE(c.upper_half());
  c.reset(127);
  EXPECT_FALSE(c.upper_half());
}

TEST(Saturating, IncrementByAmountSaturates) {
  SaturatingCounter<std::uint32_t> c(10, 8);
  c.increment(5);
  EXPECT_EQ(c.value(), 10u);
}

TEST(Stats, HitMissRates) {
  HitMiss hm;
  EXPECT_DOUBLE_EQ(hm.miss_rate(), 0.0);
  hm.record(true);
  hm.record(true);
  hm.record(false);
  EXPECT_EQ(hm.accesses(), 3u);
  EXPECT_NEAR(hm.miss_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(hm.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Stats, HitMissAccumulate) {
  HitMiss a, b;
  a.record(true);
  b.record(false);
  a += b;
  EXPECT_EQ(a.hits, 1u);
  EXPECT_EQ(a.misses, 1u);
}

TEST(Stats, StatSetMergePrefix) {
  StatSet a, b;
  a.counter("x") = 1;
  b.counter("x") = 2;
  b.counter("y") = 3;
  a.merge(b, "sub.");
  EXPECT_EQ(a.get("x"), 1u);
  EXPECT_EQ(a.get("sub.x"), 2u);
  EXPECT_EQ(a.get("sub.y"), 3u);
  EXPECT_FALSE(a.has("z"));
}

TEST(Stats, ImprovementPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(100, 80), 20.0);
  EXPECT_DOUBLE_EQ(improvement_pct(100, 120), -20.0);
  EXPECT_DOUBLE_EQ(improvement_pct(100, 100), 0.0);
}

// A zero-cycle baseline (empty workload) must not crash a sweep: it reports
// 0.0 and bumps the degenerate-call counter so the caller can warn.
TEST(Stats, ImprovementPctZeroBaselineIsDegenerateNotFatal) {
  const std::uint64_t before = improvement_pct_degenerate_count().load();
  EXPECT_DOUBLE_EQ(improvement_pct(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(improvement_pct(0, 0), 0.0);
  EXPECT_EQ(improvement_pct_degenerate_count().load(), before + 2);
}

TEST(Stats, MergeSnapshotAccumulatesDeltasNotTotals) {
  StatSet live;  // stands in for a component's cumulative counters
  live.counter("decays") = 3;
  live.counter("hits") = 10;

  StatSet agg;
  agg.merge_snapshot(live, "mat.");
  EXPECT_EQ(agg.get("mat.decays"), 3u);

  // The component keeps counting; a second snapshot of the SAME prefix must
  // add only the movement. Plain merge() would re-add the cumulative 5 and
  // report 8.
  live.counter("decays") = 5;
  live.counter("hits") = 25;
  agg.merge_snapshot(live, "mat.");
  EXPECT_EQ(agg.get("mat.decays"), 5u);
  EXPECT_EQ(agg.get("mat.hits"), 25u);

  // A counter that moved backwards (component reset) contributes nothing.
  live.counter("hits") = 4;
  agg.merge_snapshot(live, "mat.");
  EXPECT_EQ(agg.get("mat.hits"), 25u);
}

TEST(Stats, DeltaFromReportsPerIntervalMovement) {
  StatSet prev, now;
  prev.counter("a") = 10;
  now.counter("a") = 17;
  now.counter("b") = 4;  // new key: whole value is the delta
  const StatSet d = now.delta_from(prev);
  EXPECT_EQ(d.get("a"), 7u);
  EXPECT_EQ(d.get("b"), 4u);
  // Backwards movement clamps to 0 rather than underflowing.
  StatSet later;
  later.counter("a") = 5;
  EXPECT_EQ(later.delta_from(now).get("a"), 0u);
}

TEST(Table, FormatsAligned) {
  TextTable t({"A", "Longer"});
  t.add_row({"hello", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| A     | Longer |"), std::string::npos);
  EXPECT_NE(s.find("| hello | 1      |"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
  EXPECT_EQ(TextTable::count(0), "0");
  EXPECT_EQ(TextTable::count(1234567), "1,234,567");
}

TEST(CsvField, PlainFieldsPassThroughUnquoted) {
  EXPECT_EQ(csv_field("Swim"), "Swim");
  EXPECT_EQ(csv_field(""), "");
  EXPECT_EQ(csv_field("a b"), "a b");  // interior space needs no quoting
  EXPECT_EQ(csv_field("3.14"), "3.14");
}

TEST(CsvField, QuotesDelimitersAndDoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_field("TPC-D,Q6"), "\"TPC-D,Q6\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("\""), "\"\"\"\"");
}

TEST(CsvField, QuotesCrLfAndEdgeWhitespacePerRfc4180) {
  // Embedded line breaks — bare LF, bare CR, and a CRLF pair — must be
  // quoted or the row structure is destroyed.
  EXPECT_EQ(csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_field("carriage\rreturn"), "\"carriage\rreturn\"");
  EXPECT_EQ(csv_field("dos\r\nending"), "\"dos\r\nending\"");
  EXPECT_EQ(csv_field("\n"), "\"\n\"");
  // Leading/trailing whitespace is significant per RFC 4180; quote it so
  // trimming consumers cannot eat it.
  EXPECT_EQ(csv_field(" padded"), "\" padded\"");
  EXPECT_EQ(csv_field("padded "), "\"padded \"");
  EXPECT_EQ(csv_field("\ttabbed"), "\"\ttabbed\"");
  EXPECT_EQ(csv_field("tabbed\t"), "\"tabbed\t\"");
  EXPECT_EQ(csv_field(" "), "\" \"");
  // Combined: CRLF + comma + quote in one field.
  EXPECT_EQ(csv_field("a,\r\n\"b\""), "\"a,\r\n\"\"b\"\"\"");
}

}  // namespace
}  // namespace selcache
