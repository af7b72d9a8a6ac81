// Tape format unit tests: varint/zigzag primitives, encode/decode
// round-trips (directed and randomized), file save/load validation, and the
// TapeCache once-per-key population contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "tape/cache.h"
#include "tape/tape.h"

namespace selcache::tape {
namespace {

// --- primitives -----------------------------------------------------------

TEST(Varint, RoundTripsEdgeValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 0x7F,
                                 0x80,
                                 0x3FFF,
                                 0x4000,
                                 1ULL << 32,
                                 (1ULL << 63) - 1,
                                 ~0ULL};
  for (std::uint64_t v : cases) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(get_varint(&p, p + buf.size()), v);
    EXPECT_EQ(p, buf.data() + buf.size()) << "decoder must consume exactly";
  }
}

TEST(Varint, RejectsTruncation) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1ULL << 40);
  buf.pop_back();  // drop the terminating byte
  const std::uint8_t* p = buf.data();
  EXPECT_THROW(get_varint(&p, buf.data() + buf.size()), std::logic_error);
}

TEST(Varint, RejectsOverlongEncoding) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x00);
  const std::uint8_t* p = buf.data();
  EXPECT_THROW(get_varint(&p, buf.data() + buf.size()), std::logic_error);
}

TEST(Varint, TenByteMaxEncodingRoundTrips) {
  // UINT64_MAX legitimately needs ten bytes: nine full continuation bytes
  // plus a final 0x01 carrying only bit 63.
  std::vector<std::uint8_t> buf;
  put_varint(buf, ~0ULL);
  ASSERT_EQ(buf.size(), 10u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(buf[i], 0xFF);
  EXPECT_EQ(buf[9], 0x01);
  const std::uint8_t* p = buf.data();
  EXPECT_EQ(get_varint(&p, p + buf.size()), ~0ULL);
}

TEST(Varint, RejectsTenthBytePayloadBeyondBit63) {
  // A 10th byte may only contribute bit 63. 0x7F there would silently
  // shift 6 of its 7 payload bits past the top of the value — that is
  // corruption masquerading as a tiny number, and must throw instead.
  std::vector<std::uint8_t> buf(9, 0x80);
  buf.push_back(0x7F);
  const std::uint8_t* p = buf.data();
  EXPECT_THROW(get_varint(&p, buf.data() + buf.size()), std::logic_error);
  // 0x02 (bit 64) is equally out of range; 0x01 (bit 63) is the only
  // acceptable payload.
  buf[9] = 0x02;
  p = buf.data();
  EXPECT_THROW(get_varint(&p, buf.data() + buf.size()), std::logic_error);
  buf[9] = 0x01;
  p = buf.data();
  EXPECT_EQ(get_varint(&p, buf.data() + buf.size()), 1ULL << 63);
}

TEST(Varint, RejectsTruncationAtEveryPrefixOfMaxEncoding) {
  // Every strict prefix of the maximal encoding must fail as structured
  // corruption (logic_error), never decode to a wrong value.
  std::vector<std::uint8_t> buf;
  put_varint(buf, ~0ULL);
  for (std::size_t keep = 0; keep < buf.size(); ++keep) {
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(&p, buf.data() + keep), std::logic_error)
        << "prefix of " << keep << " bytes decoded";
  }
}

TEST(Zigzag, MaximalDeltasRoundTripThroughVarint) {
  // Address deltas of both extreme signs exercise the full varint width:
  // INT64_MIN zigzags to UINT64_MAX (the ten-byte encoding above).
  for (std::int64_t v : {INT64_MIN, INT64_MAX, INT64_MIN + 1}) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, zigzag(v));
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(unzigzag(get_varint(&p, p + buf.size())), v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(Zigzag, RoundTripsSignedRange) {
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 1'000'000, -1'000'000,
                                INT64_MAX, INT64_MIN};
  for (std::int64_t v : cases) EXPECT_EQ(unzigzag(zigzag(v)), v);
  // Small magnitudes must encode small (that is the density argument).
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
}

// --- encode/decode round-trip --------------------------------------------

/// Reference event list a tape should reproduce, and the Sink that
/// re-collects it from replay_into.
struct Event {
  int kind;  // 0 load, 1 store, 2 ifetch, 3 branch, 4 compute, 5 toggle
  std::uint64_t a = 0;  // address / count / region
  std::uint64_t b = 0;  // ifetch n_instr
  bool flag = false;    // dependent / taken / on

  bool operator==(const Event&) const = default;
};

struct Collector {
  std::vector<Event> events;
  void load(Addr a, bool dep) { events.push_back({0, a, 0, dep}); }
  void store(Addr a) { events.push_back({1, a, 0, false}); }
  void touch_code(Addr pc, std::uint32_t n) { events.push_back({2, pc, n}); }
  void branch(Addr pc, bool taken) { events.push_back({3, pc, 0, taken}); }
  void compute(std::uint64_t n) { events.push_back({4, n}); }
  void toggle(bool on, std::int32_t region) {
    events.push_back(
        {5, static_cast<std::uint64_t>(static_cast<std::int64_t>(region)), 0,
         on});
  }
};

TEST(TapeRoundTrip, DirectedStreamIncludingNibbleEscapes) {
  TapeBuilder b;
  std::vector<Event> ref;
  auto load = [&](Addr a, bool dep) {
    b.load(a, dep);
    ref.push_back({0, a, 0, dep});
  };
  auto store = [&](Addr a) {
    b.store(a);
    ref.push_back({1, a, 0, false});
  };
  auto ifetch = [&](Addr pc, std::uint32_t n) {
    b.ifetch(pc, n);
    ref.push_back({2, pc, n});
  };
  auto branch = [&](Addr pc, bool taken) {
    b.branch(pc, taken);
    ref.push_back({3, pc, 0, taken});
  };
  auto compute = [&](std::uint64_t n) {
    b.compute(n);
    ref.push_back({4, n});
  };
  auto toggle = [&](bool on, std::int32_t region) {
    b.toggle(on, region);
    ref.push_back(
        {5, static_cast<std::uint64_t>(static_cast<std::int64_t>(region)), 0,
         on});
  };

  ifetch(0x400000, 3);         // first code address: large delta from 0
  load(0x10000, false);        // first data address
  load(0x10008, true);         // +8 dependent
  store(0x10008);              // zero delta
  load(0x0, false);            // negative delta
  branch(0x400010, true);
  branch(0x400010, false);     // not-taken flag
  compute(0);                  // nibble floor
  compute(14);                 // largest inline nibble
  compute(15);                 // first escaped value
  compute(1'000'000);          // large escape
  ifetch(0x400020, 14);        // inline count
  ifetch(0x400040, 200);       // escaped count
  toggle(true, -1);            // unattributed region encodes as nibble 0
  toggle(false, 13);           // largest inline region (13+1 = 14)
  toggle(true, 14);            // first escaped region (14+1 = 15)
  toggle(true, 1000);          // large escaped region

  const Tape t = b.take();
  EXPECT_EQ(t.stats.loads, 3u);
  EXPECT_EQ(t.stats.stores, 1u);
  EXPECT_EQ(t.stats.ifetch_batches, 3u);
  EXPECT_EQ(t.stats.branches, 2u);
  EXPECT_EQ(t.stats.computes, 4u);
  EXPECT_EQ(t.stats.toggles, 4u);

  Collector c;
  replay_into(t, c);
  EXPECT_EQ(c.events, ref);
}

TEST(TapeRoundTrip, RandomizedStreamsAreLossless) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    TapeBuilder b;
    std::vector<Event> ref;
    Addr data = rng() % (1ULL << 40);
    Addr code = 0x400000;
    const int n = 1 + static_cast<int>(rng() % 2000);
    for (int i = 0; i < n; ++i) {
      switch (rng() % 6) {
        case 0: {
          data += static_cast<Addr>(static_cast<std::int64_t>(rng() % 4096) -
                                    2048);
          const bool dep = rng() % 4 == 0;
          b.load(data, dep);
          ref.push_back({0, data, 0, dep});
          break;
        }
        case 1: {
          data += rng() % 64;
          b.store(data);
          ref.push_back({1, data, 0, false});
          break;
        }
        case 2: {
          code += rng() % 256;
          const auto cnt = static_cast<std::uint32_t>(rng() % 40);
          b.ifetch(code, cnt);
          ref.push_back({2, code, cnt});
          break;
        }
        case 3: {
          const bool taken = rng() % 2 == 0;
          b.branch(code, taken);
          ref.push_back({3, code, 0, taken});
          break;
        }
        case 4: {
          const std::uint64_t cnt = rng() % 100;
          b.compute(cnt);
          ref.push_back({4, cnt});
          break;
        }
        default: {
          const auto region = static_cast<std::int32_t>(rng() % 32) - 1;
          const bool on = rng() % 2 == 0;
          b.toggle(on, region);
          ref.push_back({5,
                         static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(region)),
                         0, on});
          break;
        }
      }
    }
    const Tape t = b.take();
    EXPECT_EQ(t.stats.ops(), ref.size());
    Collector c;
    replay_into(t, c);
    ASSERT_EQ(c.events, ref) << "trial " << trial;
  }
}

TEST(TapeRoundTrip, DensityStaysUnderFourBytesPerAccess) {
  // A stride-1 access stream — the common case — must encode near the
  // 2-byte floor (1 opcode byte + 1 delta byte), far below the 16-byte
  // flat-trace event.
  TapeBuilder b;
  for (Addr a = 0x1000; a < 0x1000 + 8 * 4096; a += 8) b.load(a, false);
  const Tape t = b.take();
  EXPECT_EQ(t.stats.data_accesses(), 4096u);
  EXPECT_LT(t.bytes_per_access(), 4.0);
  EXPECT_GE(t.bytes_per_access(), 2.0);
}

TEST(TapeRoundTrip, RejectsCorruptOpcodeAndVersion) {
  TapeBuilder b;
  b.compute(1);
  Tape t = b.take();

  Tape bad_version = t;
  bad_version.version = kTapeVersion + 1;
  Collector c;
  EXPECT_THROW(replay_into(bad_version, c), std::logic_error);

  Tape bad_opcode = t;
  bad_opcode.bytes[0] = 0x07;  // Op value 7 is unassigned
  EXPECT_THROW(replay_into(bad_opcode, c), std::logic_error);

  Tape bad_loop = t;
  bad_loop.bytes[0] = 0x06;  // Op::Loop with a zero-slot body is malformed
  EXPECT_THROW(replay_into(bad_loop, c), std::logic_error);

  Tape truncated = t;
  truncated.bytes = {0x00};  // Load opcode with no delta varint
  EXPECT_THROW(replay_into(truncated, c), std::logic_error);
}

// --- file round-trip ------------------------------------------------------

// ctest runs every test case in its own process, possibly concurrently, so
// each test gets its own file: a shared path lets one test's TearDown
// delete or overwrite another's file mid-test.
class TapeFileTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("selcache_tape_test_" +
                        std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()) +
                        ".tape"))
                          .string();
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
};

TEST_F(TapeFileTest, SaveLoadRoundTrip) {
  TapeBuilder b;
  b.ifetch(0x400000, 5);
  for (Addr a = 0; a < 1000; ++a) b.load(0x2000 + a * 16, a % 3 == 0);
  b.store(0x2000);
  b.toggle(true, 2);
  b.compute(42);
  b.branch(0x400100, true);
  const Tape t = b.take();

  ASSERT_TRUE(save_tape(t, path_));
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"))
      << "writer must clean up its temp sibling";
  const Tape loaded = load_tape(path_);
  EXPECT_EQ(loaded, t);
}

TEST_F(TapeFileTest, RejectsBadMagicTruncationAndStatMismatch) {
  TapeBuilder b;
  for (int i = 0; i < 100; ++i) b.load(0x1000 + i * 8, false);
  const Tape t = b.take();
  ASSERT_TRUE(save_tape(t, path_));

  // Missing file.
  EXPECT_THROW(load_tape(path_ + ".missing"), std::logic_error);

  auto rewrite = [&](auto mutate) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<std::uint8_t> raw(std::filesystem::file_size(path_));
    ASSERT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
    mutate(raw);
    f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
  };

  rewrite([](std::vector<std::uint8_t>& raw) { raw[0] ^= 0xFF; });
  EXPECT_THROW(load_tape(path_), std::logic_error);
  rewrite([](std::vector<std::uint8_t>& raw) { raw[0] ^= 0xFF; });  // restore

  // Truncate the payload: header byte count no longer matches.
  rewrite([](std::vector<std::uint8_t>& raw) { raw.resize(raw.size() - 5); });
  EXPECT_THROW(load_tape(path_), std::logic_error);

  ASSERT_TRUE(save_tape(t, path_));
  // Corrupt the first payload byte (offset 72 = 8 magic + 64 header) into an
  // unassigned opcode: the load-time decode sweep must reject the stream.
  rewrite([](std::vector<std::uint8_t>& raw) { raw[72] = 0x07; });
  EXPECT_THROW(load_tape(path_), std::logic_error);

  // A header that claims a body far larger than the file must be rejected
  // BEFORE the body buffer is sized from it (a lying n_bytes used to drive
  // a multi-gigabyte resize). n_bytes lives at offset 64 (8 magic + 56).
  ASSERT_TRUE(save_tape(t, path_));
  rewrite([](std::vector<std::uint8_t>& raw) {
    raw[64] = 0xFF;
    raw[65] = 0xFF;
    raw[66] = 0xFF;
    raw[67] = 0xFF;  // n_bytes low word -> ~4 GB
  });
  EXPECT_THROW(load_tape(path_), std::logic_error);

  // Truncated tail: every strict prefix of a valid file is structured
  // corruption (logic_error), never a short-but-successful load.
  ASSERT_TRUE(save_tape(t, path_));
  std::vector<std::uint8_t> whole(std::filesystem::file_size(path_));
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(whole.data(), 1, whole.size(), f), whole.size());
    std::fclose(f);
  }
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                           std::size_t{40}, std::size_t{71},
                           whole.size() - 1}) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(whole.data(), 1, keep, f), keep);
    std::fclose(f);
    EXPECT_THROW(load_tape(path_), std::logic_error) << "kept " << keep;
  }
}

TEST_F(TapeFileTest, ExtremeAddressDeltasRoundTripThroughDisk) {
  // Jumps between opposite ends of the 64-bit address space force maximal
  // zigzag varints through the real encoder, the file layer, and replay.
  TapeBuilder b;
  b.load(0, false);
  b.load(~0ULL & ~31ULL, true);  // +MAX-ish delta
  b.store(32);                   // huge negative delta
  b.load(1ULL << 63, false);     // bit-63 delta (the ten-byte encoding)
  b.compute(~0ULL);              // maximal count varint
  const Tape t = b.take();
  ASSERT_TRUE(save_tape(t, path_));
  const Tape loaded = load_tape(path_);
  EXPECT_EQ(loaded, t);
}

// --- TapeCache ------------------------------------------------------------

Tape tiny_tape(std::uint64_t n) {
  TapeBuilder b;
  for (std::uint64_t i = 0; i < n; ++i) b.load(0x1000 + i * 8, false);
  return b.take();
}

TEST(TapeCacheTest, RecordsOncePerKeyAcrossThreads) {
  TapeCache cache;
  std::atomic<int> recordings{0};
  constexpr int kThreads = 8;
  std::vector<TapeCache::TapePtr> got(kThreads);
  {
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        got[i] = cache.get_or_record("k", [&] {
          ++recordings;
          return tiny_tape(64);
        });
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(recordings.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_EQ(got[i], got[0]) << "all callers share one tape object";
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TapeCacheTest, RecordedHereReportedOnlyToTheRecorder) {
  TapeCache cache;
  bool first = false, second = true;
  cache.get_or_record("k", [] { return tiny_tape(4); }, &first);
  cache.get_or_record("k", [] { return tiny_tape(4); }, &second);
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(TapeCacheTest, FailedRecordingReleasesTheClaim) {
  TapeCache cache;
  EXPECT_THROW(cache.get_or_record(
                   "k", []() -> Tape { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.find("k"), nullptr);
  // A later call retries and succeeds.
  const auto t = cache.get_or_record("k", [] { return tiny_tape(2); });
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->stats.loads, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TapeCacheTest, SnapshotIsKeyOrderedAndClearEmpties) {
  TapeCache cache;
  cache.get_or_record("b", [] { return tiny_tape(1); });
  cache.get_or_record("a", [] { return tiny_tape(2); });
  cache.get_or_record("c", [] { return tiny_tape(3); });
  const auto snap = cache.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "b");
  EXPECT_EQ(snap[2].first, "c");
  EXPECT_EQ(snap[0].second->stats.loads, 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("a"), nullptr);
}

}  // namespace
}  // namespace selcache::tape
