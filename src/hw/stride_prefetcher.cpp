#include "hw/stride_prefetcher.h"

#include "support/check.h"

namespace selcache::hw {

using memsys::FillDecision;
using memsys::Level;

StridePrefetcher::StridePrefetcher(StridePrefetcherConfig cfg)
    : cfg_(cfg), block_(cfg_.block_size, "prefetcher block size") {
  SELCACHE_CHECK(cfg_.streams > 0);
  table_.resize(cfg_.streams);
}

StridePrefetcher::Stream* StridePrefetcher::find(Addr frame) {
  for (auto& s : table_)
    if (s.valid && s.next_frame == frame) return &s;
  return nullptr;
}

StridePrefetcher::Stream* StridePrefetcher::allocate() {
  Stream* lru = &table_[0];
  for (auto& s : table_) {
    if (!s.valid) return &s;
    if (s.lru < lru->lru) lru = &s;
  }
  return lru;
}

void StridePrefetcher::on_access(Level level, Addr addr, bool /*is_write*/,
                                 bool hit) {
  if (level != Level::L1D || hit) return;
  const Addr f = frame_of(addr);
  if (Stream* s = find(f)) {
    // The miss continues a tracked stream.
    s->next_frame = f + 1;
    if (s->hits < cfg_.confirm) {
      ++s->hits;
      if (s->hits == cfg_.confirm) ++confirmed_;  // transition, once
    }
    s->lru = ++stamp_;
    return;
  }
  // New potential stream starting at this miss.
  Stream* s = allocate();
  s->valid = true;
  s->next_frame = f + 1;
  s->hits = 0;
  s->lru = ++stamp_;
}

std::optional<memsys::HwScheme::AuxHit> StridePrefetcher::service_miss(
    Level /*level*/, Addr /*addr*/, bool /*is_write*/) {
  return std::nullopt;  // prefetching has no auxiliary data store
}

FillDecision StridePrefetcher::fill_decision(Level /*level*/, Addr /*addr*/,
                                             std::optional<Addr> /*victim*/) {
  return FillDecision::Fill;
}

void StridePrefetcher::on_bypassed(Level /*level*/, Addr /*addr*/,
                                   bool /*is_write*/) {
  SELCACHE_CHECK_MSG(false, "prefetcher never bypasses");
}

void StridePrefetcher::on_eviction(Level /*level*/, Addr /*block_addr*/,
                                   bool /*dirty*/) {}

std::uint32_t StridePrefetcher::fetch_width(Level level, Addr addr) {
  if (level != Level::L1D) return 1;
  const Addr f = frame_of(addr);
  // Widen when this miss belongs to a confirmed stream (the tracked entry
  // now expects f+1, meaning f just confirmed it).
  for (const auto& s : table_)
    if (s.valid && s.next_frame == f + 1 && s.hits >= cfg_.confirm) {
      ++widened_;
      return cfg_.degree;
    }
  return 1;
}

void StridePrefetcher::export_stats(StatSet& out) const {
  out.add("prefetch.confirmed_streams", confirmed_);
  out.add("prefetch.widened_fetches", widened_);
}

}  // namespace selcache::hw
