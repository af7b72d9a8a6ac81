#include "hw/bypass_buffer.h"

#include "fault/injector.h"
#include "support/check.h"

namespace selcache::hw {

BypassBuffer::BypassBuffer(std::uint32_t entries, std::uint32_t word_size)
    : entries_(entries), word_(word_size, "bypass buffer word size") {
  SELCACHE_CHECK(entries_ > 0);
  slots_.resize(entries_);
}

BypassBuffer::Entry& BypassBuffer::lru_entry() {
  Entry* lru = nullptr;
  for (Entry& e : slots_)
    if (e.valid && (lru == nullptr || e.stamp < lru->stamp)) lru = &e;
  return *lru;
}

void BypassBuffer::insert(Addr addr, bool dirty) {
  if (fault_ != nullptr && live_ > 0 &&
      fault_->should_invalidate(fault::BufferSite::BypassBuffer)) {
    // Silent loss: the LRU word vanishes without a writeback — exactly the
    // data-loss hazard a faulted buffer introduces.
    lru_entry().valid = false;
    --live_;
    ++invalidated_;
  }
  // One pass resolves all three outcomes: refresh a matching word, take the
  // first free slot, or displace the minimum-stamp (LRU) word.
  const Addr w = word_of(addr);
  Entry* free_slot = nullptr;
  Entry* lru = nullptr;
  for (Entry& e : slots_) {
    if (e.valid) {
      if (e.word == w) {
        e.dirty = e.dirty || dirty;
        e.stamp = ++stamp_;
        return;
      }
      if (lru == nullptr || e.stamp < lru->stamp) lru = &e;
    } else if (free_slot == nullptr) {
      free_slot = &e;
    }
  }
  Entry* slot = free_slot;
  if (slot == nullptr) {
    // Full: displace the least recently used word.
    slot = lru;
    if (slot->dirty) ++writebacks_;
  } else {
    ++live_;
  }
  slot->valid = true;
  slot->word = w;
  slot->dirty = dirty;
  slot->stamp = ++stamp_;
}

void BypassBuffer::export_stats(StatSet& out) const {
  out.add("bypass_buffer.hits", stats_.hits);
  out.add("bypass_buffer.misses", stats_.misses);
  out.add("bypass_buffer.writebacks", writebacks_);
  // Fault-only key: kept out of un-faulted runs so their stat/JSONL output
  // stays byte-identical to the pre-fault-layer format.
  if (fault_ != nullptr) out.add("bypass_buffer.invalidated", invalidated_);
}

}  // namespace selcache::hw
