// Two-level memory hierarchy with TLBs, an optional hardware locality
// scheme, and optional three-C miss classification.
//
// Topology (Table 1 of the paper):
//
//            +-------+   +-------+
//   ifetch ->| ITLB  |-->|  L1I  |---+
//            +-------+   +-------+   |    +------+     +--------+
//                                    +--->|  L2  |---->| Memory |
//            +-------+   +-------+   |    +------+     +--------+
//   ld/st -->| DTLB  |-->|  L1D  |---+
//            +-------+   +-------+
//
// The attached HwScheme interposes on the L1D/L2 data path only (the paper's
// mechanisms target the data cache). The hierarchy is non-inclusive, write-
// back, write-allocate — matching SimpleScalar's cache module. So the ITLB,
// L1I and DTLB (the StreamSide) evolve with the access stream alone, and
// the Hierarchies that one interpretation drives can share them.
#pragma once

#include <memory>
#include <optional>

#include "fault/injector.h"
#include "memsys/cache.h"
#include "memsys/hw_hooks.h"
#include "memsys/main_memory.h"
#include "memsys/miss_classifier.h"
#include "memsys/tlb.h"
#include "trace/recorder.h"

namespace selcache::memsys {

enum class AccessKind { Load, Store, IFetch };

/// Per-access observer of the L1D data path (loads/stores only), invoked
/// after the tag check with the demand address and hit/miss outcome. Used by
/// the static-locality measurement harness to attribute misses to data
/// entities. Attached nullptr-gated like the trace recorder and fault
/// injector: an unprobed run executes the pre-probe code path bit-for-bit.
class DataAccessProbe {
 public:
  virtual ~DataAccessProbe() = default;
  virtual void on_l1d_access(Addr addr, bool is_write, bool hit) = 0;
};

struct HierarchyConfig {
  CacheConfig l1d{.name = "l1d",
                  .size_bytes = 32 * 1024,
                  .assoc = 4,
                  .block_size = 32,
                  .latency = 2};
  CacheConfig l1i{.name = "l1i",
                  .size_bytes = 32 * 1024,
                  .assoc = 4,
                  .block_size = 32,
                  .latency = 2};
  CacheConfig l2{.name = "l2",
                 .size_bytes = 512 * 1024,
                 .assoc = 4,
                 .block_size = 128,
                 .latency = 10};
  TlbConfig dtlb{.name = "dtlb", .entries = 128, .assoc = 4};
  TlbConfig itlb{.name = "itlb", .entries = 64, .assoc = 4};
  MemoryConfig mem{};
  bool classify_misses = false;  ///< maintain the 3C shadow for L1D
};

/// The hierarchy's stream side: the DTLB, the ITLB and the L1I. Only the
/// op stream drives them. The scheme acts on the L1D/L2 data path alone, and
/// an L1I miss refills the L1I whatever L2 holds (the hierarchy is
/// non-inclusive, so L2 never invalidates it). The Hierarchies of one ride
/// all see one stream, so they share one StreamSide, which runs once per
/// access for all of them (DESIGN §8); a standalone Hierarchy owns its own.
struct StreamSide {
  explicit StreamSide(const HierarchyConfig& cfg)
      : dtlb(cfg.dtlb), itlb(cfg.itlb), l1i(cfg.l1i) {}

  /// What one I-fetch block did on the stream side.
  struct Fetch {
    Cycle tlb = 0;          ///< the ITLB's charge
    bool l1i_miss = false;  ///< the L1I missed (and holds the block now)
    /// Neither structure charged anything: the block costs the L1I hit
    /// time and needs nothing from L2.
    bool hit() const { return tlb == 0 && !l1i_miss; }
  };

  /// The DTLB's charge for a load or store at `addr`.
  Cycle translate(Addr addr) { return dtlb.access(addr); }

  /// One I-fetch block through the ITLB and the L1I. A missing block is
  /// filled at once: only the latency of the refill depends on L2.
  Fetch fetch(Addr addr) {
    Fetch f{.tlb = itlb.access(addr)};
    if (!l1i.access(addr, /*is_write=*/false)) {
      f.l1i_miss = true;
      l1i.fill(addr, false);
    }
    return f;
  }

  Tlb dtlb, itlb;
  Cache l1i;
};

class Hierarchy {
 public:
  /// Runs on `stream` when given (a stream side built from the same
  /// config, which a ride's Hierarchies share), else on one of its own.
  explicit Hierarchy(HierarchyConfig cfg, StreamSide* stream = nullptr);
  /// `other`'s machine state (caches, TLBs, memory and 3C classifier) with
  /// nothing attached: no scheme, recorder, injector or probe. It shares
  /// `other`'s stream side when `other` shares one, and copies it when
  /// `other` owns it.
  Hierarchy(const Hierarchy& other);
  Hierarchy& operator=(const Hierarchy&) = delete;

  /// Attach (non-owning) a hardware scheme; pass nullptr to detach.
  void attach_hw(HwScheme* hw) { hw_ = hw; }
  HwScheme* hw() const { return hw_; }

  /// Attach (non-owning) a phase-trace recorder; nullptr detaches. The
  /// hierarchy drives the recorder's epoch clock: one tick per completed
  /// demand access (data and instruction side alike).
  void set_trace(trace::Recorder* rec) { trace_ = rec; }

  /// Attach (non-owning) a fault injector; nullptr detaches. The hierarchy
  /// gives it one callback per demand access — the watchdog / task-crash
  /// clock of the fault model.
  void set_fault(fault::Injector* inj) { fault_ = inj; }

  /// Attach (non-owning) an L1D access probe; nullptr detaches.
  void set_probe(DataAccessProbe* p) { probe_ = p; }

  /// Perform one demand access; returns the total latency in cycles. It is
  /// the stream side's step followed by this hierarchy's own part, data()
  /// or fetch(), exactly as a ride runs them. With a fault injector
  /// attached this may throw fault::WatchdogExceeded or
  /// fault::InjectedCrash — all simulator state is task-local, so the
  /// exception unwinds cleanly to the resilient runner. Defined inline —
  /// together with the inline Cache/Tlb hit paths this collapses the whole
  /// hit-case access into one call frame, which is what the trace-tape
  /// replay loop's throughput rides on.
  Cycle access(Addr addr, AccessKind kind) {
    if (kind == AccessKind::IFetch) return fetch(addr, stream_->fetch(addr));
    return data(addr, kind == AccessKind::Store, stream_->translate(addr));
  }

  /// A load or store past the stream side, whose DTLB charged `tlb`
  /// cycles: L1D, L2, memory and the scheme.
  Cycle data(Addr addr, bool is_write, Cycle tlb) {
    // Watchdog / crash clock before the data path changes. A killed run is
    // discarded whole, so the stream side having counted the access does
    // not show.
    if (fault_ != nullptr) fault_->on_access();
    const Cycle lat = data_impl(addr, is_write, tlb);
    // Epoch clock ticks after the access fully updated its counters, so an
    // epoch boundary at access N covers exactly accesses [.., N).
    if (trace_ != nullptr) trace_->note_access();
    return lat;
  }

  /// An I-fetch block past the stream side: the ITLB's charge plus the L1I
  /// hit time, and on an L1I miss the refill from L2 (and memory). The
  /// I-side never reaches the scheme, so an L1I hit only ticks the clocks.
  Cycle fetch(Addr addr, StreamSide::Fetch f) {
    if (fault_ != nullptr) fault_->on_access();
    Cycle lat = f.tlb + cfg_.l1i.latency;
    if (f.l1i_miss) lat += refill_l1i(addr);
    if (trace_ != nullptr) trace_->note_access();
    return lat;
  }

  /// The stream side this hierarchy runs on: its own or a shared one.
  StreamSide& stream() { return *stream_; }

  /// Host-side prefetch of the L1D and DTLB sets a future data access will
  /// probe — the batched-replay lookahead hint. Pure performance: no
  /// simulator state, statistics, or attached hooks are touched.
  void prefetch_data(Addr addr) const {
    stream_->dtlb.prefetch_set(addr);
    l1d_.prefetch_set(addr);
  }

  const Cache& l1d() const { return l1d_; }
  const Cache& l1i() const { return stream_->l1i; }
  const Cache& l2() const { return l2_; }
  const Tlb& dtlb() const { return stream_->dtlb; }
  const Tlb& itlb() const { return stream_->itlb; }
  const MainMemory& memory() const { return mem_; }
  const MissClassifier* classifier() const { return classifier_.get(); }
  const HierarchyConfig& config() const { return cfg_; }

  /// Combined L1 (data + instruction) miss rate, as reported in Table 2.
  double l1_miss_rate() const;
  /// L2 miss rate (local: misses / L2 accesses).
  double l2_miss_rate() const;

  void export_stats(StatSet& out) const;

 private:
  bool hw_active() const { return hw_ != nullptr && hw_->active(); }

  /// The data path proper below the DTLB; data() wraps it so the epoch
  /// tick fires after the access's counter updates are complete (single
  /// return site). Inline for the hit case; misses leave through the
  /// out-of-line refill/place helpers.
  Cycle data_impl(Addr addr, bool is_write, Cycle tlb) {
    const Cycle lat = tlb + cfg_.l1d.latency;
    // One scan of the L1D set: lookup, LRU update, and victim preview. The
    // preview feeds place_l1d(); it stays valid because the only code that
    // could touch this set before the fill (aux service) returns early.
    const Cache::LookupResult lr = l1d_.access_with_victim(addr, is_write);
    if (probe_ != nullptr) probe_->on_l1d_access(addr, is_write, lr.hit);

    if (classifier_ != nullptr) {
      if (!lr.hit) classifier_->classify_miss(addr);
      classifier_->note_access(addr);
    }

    if (lr.hit) {
      if (hw_active()) hw_->on_access(Level::L1D, addr, is_write, true);
      return lat;
    }
    return lat + miss_l1d(addr, is_write, lr.victim, lr.fill_way);
  }

  /// L2 (and memory) side of an L1I miss (out of line: misses are rare).
  Cycle refill_l1i(Addr addr);

  /// L1D miss path beyond the TLB + L1 tag check (out of line). `fill_way`
  /// is the victim way previewed by the miss-detecting scan.
  Cycle miss_l1d(Addr addr, bool is_write, std::optional<Addr> victim,
                 std::uint32_t fill_way);

  /// Fetch the block containing `addr` into L2 (if absent), returning the
  /// added latency beyond the L2 tag check.
  Cycle refill_l2(Addr addr, bool is_write);

  /// Place the block containing `addr` into L1D, honoring the scheme's
  /// fill/bypass decision and SLDT fetch width. `first_victim` is the
  /// demand block's victim previewed by the miss-detecting scan (so the
  /// set is not scanned again); `first_way` is the way it occupies. Returns
  /// the extra cycles spent transferring SLDT-widened fetches over the
  /// L1-L2 path.
  Cycle place_l1d(Addr addr, bool is_write, std::optional<Addr> first_victim,
                  std::uint32_t first_way);

  HierarchyConfig cfg_;
  std::optional<StreamSide> own_stream_;  ///< set when not shared
  StreamSide* stream_;
  Cache l1d_, l2_;
  MainMemory mem_;
  HwScheme* hw_ = nullptr;
  trace::Recorder* trace_ = nullptr;
  fault::Injector* fault_ = nullptr;
  DataAccessProbe* probe_ = nullptr;
  std::unique_ptr<MissClassifier> classifier_;
};

}  // namespace selcache::memsys
