// Stream-based hardware prefetcher — the third class of hardware locality
// mechanism §1.1 surveys ("hardware prefetching mechanisms"). Not evaluated
// in the paper's tables; provided so the selective framework can drive it
// and the scheme-comparison ablation can rank it against bypassing and
// victim caching.
//
// A small table of stream entries tracks recent miss addresses. Two misses
// at consecutive blocks confirm a stream; confirmed streams widen the
// L2->L1 fetch (same transfer-cost accounting as the SLDT's variable-size
// fetching).
#pragma once

#include <vector>

#include "memsys/hw_hooks.h"
#include "support/bitutil.h"

namespace selcache::hw {

struct StridePrefetcherConfig {
  std::uint32_t streams = 16;        ///< tracked concurrent streams
  std::uint32_t block_size = 32;
  std::uint32_t confirm = 2;         ///< consecutive hits to confirm
  std::uint32_t degree = 2;          ///< blocks fetched once confirmed
};

class StridePrefetcher final : public memsys::HwScheme {
 public:
  explicit StridePrefetcher(StridePrefetcherConfig cfg);

  std::string_view name() const override { return "prefetch"; }
  std::unique_ptr<memsys::HwScheme> clone() const override {
    return std::make_unique<StridePrefetcher>(*this);
  }

  void on_access(memsys::Level level, Addr addr, bool is_write,
                 bool hit) override;
  std::optional<AuxHit> service_miss(memsys::Level level, Addr addr,
                                     bool is_write) override;
  memsys::FillDecision fill_decision(memsys::Level level, Addr addr,
                                     std::optional<Addr> victim) override;
  void on_bypassed(memsys::Level level, Addr addr, bool is_write) override;
  void on_eviction(memsys::Level level, Addr block_addr, bool dirty) override;
  std::uint32_t fetch_width(memsys::Level level, Addr addr) override;
  void export_stats(StatSet& out) const override;

  std::uint64_t confirmed_streams() const { return confirmed_; }

 private:
  struct Stream {
    Addr next_frame = 0;       ///< expected next block frame
    std::uint32_t hits = 0;    ///< consecutive confirmations
    bool valid = false;
    std::uint64_t lru = 0;
  };

  Addr frame_of(Addr a) const { return a >> block_.shift(); }
  Stream* find(Addr frame);
  Stream* allocate();

  StridePrefetcherConfig cfg_;
  Pow2 block_;  ///< block size
  std::vector<Stream> table_;
  std::uint64_t stamp_ = 0;
  std::uint64_t confirmed_ = 0;
  std::uint64_t widened_ = 0;
};

}  // namespace selcache::hw
