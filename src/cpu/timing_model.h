// Interval-style out-of-order timing model — the stand-in for SimpleScalar's
// sim-outorder.
//
// The model charges cycles from three sources:
//   1. issue bandwidth: every instruction consumes one of `issue_width`
//      slots per cycle;
//   2. branch mispredictions: a fixed redirect penalty per miss of the
//      bimodal predictor;
//   3. exposed memory latency: each data access pays its hierarchy latency
//      beyond the pipelined L1 hit time, with bounded overlap.
//
// Overlap (memory-level parallelism) follows an interval model: while a miss
// is outstanding ("shadow"), further *independent* misses overlap with it —
// up to `memory_ports` in flight — and only extend the shadow instead of
// stalling; the first miss of a shadow is partially hidden by the RUU window
// (the out-of-order core keeps issuing ~RUU/width cycles of work under it).
// *Dependent* accesses (pointer chasing — the load's address comes from the
// previous load) serialize fully, which is what gives irregular codes their
// low MLP. This reproduces the first-order behavior the paper's results
// depend on: miss counts translate to cycles, streams get MLP, chains don't.
//
// Structure vs. pricing: the model has two halves. The structural half
// drives the controller and the hierarchy once per op; nothing it touches
// depends on main-memory latency. The pricing half — issue cycles, stalls,
// the MLP shadow, the branch predictor, the CpuConfig — turns each access
// outcome into cycles. One model can hold k pricing states (PricePoint):
// point i pays each main-memory fetch at its own latency L_i, so an access
// that made f fetches and took `lat` cycles on the hierarchy (whose memory
// latency is L_0) costs lat + f*(L_i - L_0) at point i — exactly what a
// hierarchy built with L_i would have returned. A plain run is k = 1.
#pragma once

#include <algorithm>
#include <vector>

#include "cpu/branch_predictor.h"
#include "hw/controller.h"
#include "memsys/hierarchy.h"
#include "support/bitutil.h"

namespace selcache::cpu {

/// One recorded event of the instruction/memory stream (see
/// codegen/trace_io.h for capture/replay helpers).
struct TraceEvent {
  enum class Kind : std::uint8_t {
    Compute,  ///< value = instruction count
    Load,     ///< addr; flags bit0 = dependent
    Store,    ///< addr
    Branch,   ///< addr = pc; flags bit0 = taken
    Toggle,   ///< flags bit0 = on; value = static region id + 1 (0 = none)
    Ifetch    ///< addr = pc; value = instruction count
  };
  Kind kind = Kind::Compute;
  std::uint8_t flags = 0;
  std::uint32_t value = 0;
  Addr addr = 0;

  bool operator==(const TraceEvent&) const = default;
};
using Trace = std::vector<TraceEvent>;

struct CpuConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t ruu_entries = 64;
  std::uint32_t lsq_entries = 32;
  std::uint32_t memory_ports = 2;
  std::uint32_t bimodal_entries = 2048;
  Cycle mispredict_penalty = 3;
  /// Bandwidth floor: even a fully overlapped miss occupies the L1-L2 path
  /// for this long. Bounds the MLP a miss stream can extract — without it,
  /// pathological miss inflation (e.g. rampant bypassing) would be free.
  Cycle overlap_bandwidth_cycles = 2;
  Cycle toggle_latency = 1;  ///< extra decode cycle for an ON/OFF instruction
  bool model_ifetch = true;  ///< simulate the instruction-fetch stream
};

/// One point a TimingModel prices: the core, and the main-memory access
/// latency of that point's machine.
struct PricePoint {
  CpuConfig cpu;
  Cycle mem_latency = 100;
};

class TimingModel {
 public:
  /// One point, priced at the hierarchy's own memory latency.
  TimingModel(CpuConfig cfg, memsys::Hierarchy& hierarchy,
              hw::Controller& controller);

  /// k points over one structural pass. Every point must agree on
  /// model_ifetch: it decides which accesses reach the hierarchy.
  TimingModel(const std::vector<PricePoint>& points,
              memsys::Hierarchy& hierarchy, hw::Controller& controller);

  // The six entry points are defined inline: every simulated instruction
  // passes through exactly one of them, and together with the inline
  // hierarchy hit path this keeps the whole hit-case event in one call
  // frame — the throughput floor of both the IR interpreter and the
  // trace-tape replay loop. A hit fetched nothing from memory, so it costs
  // the same at every point and returns before the pricing loop.

  /// `n` plain ALU instructions.
  void compute(std::uint64_t n) {
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Compute, 0,
                         static_cast<std::uint32_t>(n), 0});
    instructions_ += n;
  }

  /// One load instruction. `dependent` marks address-dependent loads
  /// (pointer chasing) that cannot overlap with outstanding misses.
  void load(Addr addr, bool dependent = false) {
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Load,
                         static_cast<std::uint8_t>(dependent ? 1 : 0), 0,
                         addr});
    ++instructions_;
    controller_.tick();
    const Outcome o = access(addr, memsys::AccessKind::Load);
    if (o.fetches == 0 && o.lat <= hierarchy_.config().l1d.latency) return;
    price_data(o, /*halve=*/false, dependent);
  }

  /// One store instruction (write-allocate; retires through the LSQ).
  void store(Addr addr) {
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Store, 0, 0, addr});
    ++instructions_;
    controller_.tick();
    const Outcome o = access(addr, memsys::AccessKind::Store);
    if (o.fetches == 0 && o.lat <= hierarchy_.config().l1d.latency) return;
    // Stores retire through the store queue; they only expose latency when
    // the LSQ would back up. Approximate by halving the exposed latency.
    price_data(o, /*halve=*/true, /*dependent=*/false);
  }

  /// One conditional branch at `pc` with actual outcome `taken`.
  void branch(Addr pc, bool taken) {
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Branch,
                         static_cast<std::uint8_t>(taken ? 1 : 0), 0, pc});
    ++instructions_;
    for (Pricing& p : points_)
      if (!p.bpred.predict_and_train(pc, taken))
        p.branch_stall += p.cfg.mispredict_penalty;
  }

  /// One activate/deactivate instruction: flips the controller and pays the
  /// documented overhead (§4.1: "the performance overhead of ON/OFF
  /// instructions have also been taken into account"). `region` is the
  /// static source-region id the marker belongs to (-1 = unattributed).
  void toggle(bool on, std::int32_t region = -1) {
    // The captured trace stores region + 1 in `value` so a region-less
    // toggle (region -1) round-trips through the unsigned field as 0.
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Toggle,
                         static_cast<std::uint8_t>(on ? 1 : 0),
                         static_cast<std::uint32_t>(region + 1), 0});
    ++instructions_;
    ++toggles_;
    controller_.toggle(on, region);
  }

  /// Fetch the code block(s) for `n_instr` instructions located at `pc`.
  void touch_code(Addr pc, std::uint32_t n_instr) {
    if (trace_ != nullptr)
      trace_->push_back({TraceEvent::Kind::Ifetch, 0, n_instr, pc});
    if (!model_ifetch_) return;
    // 4 bytes per instruction; touch each I-cache block the group spans.
    // Block size is validated power-of-two, so the span bounds are shifts.
    const std::uint32_t bytes = n_instr * 4;
    const std::uint32_t bs = hierarchy_.config().l1i.block_size;
    const Addr first = (pc >> l1i_shift_) << l1i_shift_;
    const Addr end = pc + (bytes > 0 ? bytes - 1 : 0);
    const Addr last = (end >> l1i_shift_) << l1i_shift_;
    for (Addr a = first; a <= last; a += bs) {
      const Outcome o = access(a, memsys::AccessKind::IFetch);
      if (o.fetches == 0 && o.lat <= hierarchy_.config().l1i.latency) continue;
      price_ifetch(o);
    }
  }

  /// Host-side prefetch of the hierarchy sets a future load/store at `addr`
  /// will probe. A pure performance hint for batched-replay lookahead — no
  /// simulator state, statistics, or trace events.
  void prefetch_data(Addr addr) const { hierarchy_.prefetch_data(addr); }

  /// Tee every subsequent event into `sink` (nullptr stops recording).
  void set_trace_sink(Trace* sink) { trace_ = sink; }

  /// Number of points this model prices (k).
  std::size_t points() const { return points_.size(); }

  Cycle cycles(std::size_t point = 0) const { return cycles(points_[point]); }
  InstrCount instructions() const { return instructions_; }
  /// Cycles lost to exposed memory latency (diagnostic).
  Cycle memory_stall_cycles(std::size_t point = 0) const {
    return points_[point].mem_stall;
  }
  Cycle branch_penalty_cycles(std::size_t point = 0) const {
    return points_[point].branch_stall;
  }

  const BimodalPredictor& predictor(std::size_t point = 0) const {
    return points_[point].bpred;
  }
  const CpuConfig& config(std::size_t point = 0) const {
    return points_[point].cfg;
  }

  void export_stats(StatSet& out, std::size_t point = 0) const;

 private:
  /// What one hierarchy access did: its latency at the hierarchy's own
  /// memory latency, and how many main-memory fetches it made.
  struct Outcome {
    Cycle lat;
    std::uint64_t fetches;
  };

  /// One point's pricing state.
  struct Pricing {
    explicit Pricing(const PricePoint& p)
        : cfg(p.cpu),
          mem_latency(p.mem_latency),
          bpred(p.cpu.bimodal_entries) {}

    CpuConfig cfg;
    Cycle mem_latency;
    BimodalPredictor bpred;
    Cycle mem_stall = 0;
    Cycle branch_stall = 0;
    Cycle shadow_end = 0;        ///< cycle when outstanding misses resolve
    std::uint32_t inflight = 0;  ///< misses overlapped in current shadow
    std::uint64_t overlapped_misses = 0;
    std::uint64_t serialized_misses = 0;
  };

  Outcome access(Addr addr, memsys::AccessKind kind) {
    const std::uint64_t reads = hierarchy_.memory().reads();
    const Cycle lat = hierarchy_.access(addr, kind);
    return {lat, hierarchy_.memory().reads() - reads};
  }

  /// The latency `o` has at point `p`: each fetch repriced from the
  /// hierarchy's memory latency to the point's. Never underflows — every
  /// fetch contributed at least the hierarchy's latency to o.lat.
  Cycle latency_at(const Pricing& p, Outcome o) const {
    return o.lat - o.fetches * mem_latency_ + o.fetches * p.mem_latency;
  }

  Cycle cycles(const Pricing& p) const {
    const Cycle issue =
        (instructions_ + p.cfg.issue_width - 1) / p.cfg.issue_width;
    return issue + p.mem_stall + p.branch_stall +
           toggles_ * p.cfg.toggle_latency;
  }

  /// Price a load/store beyond the pipelined L1D hit time at every point
  /// (out of line: misses only). `halve` is the store-queue discount.
  void price_data(Outcome o, bool halve, bool dependent);
  /// Price an I-fetch beyond the L1I hit time at every point; frontend
  /// stalls are partly absorbed by the fetch queue.
  void price_ifetch(Outcome o);
  /// Miss accounting (interval/MLP model) of `extra` exposed cycles.
  void charge_memory(Pricing& p, Cycle extra, bool dependent);

  memsys::Hierarchy& hierarchy_;
  hw::Controller& controller_;
  std::vector<Pricing> points_;
  Cycle mem_latency_ = 0;  ///< the hierarchy's memory latency (L_0)
  bool model_ifetch_ = true;
  unsigned l1i_shift_ = 0;  ///< log2(l1i block size); validated pow2
  Trace* trace_ = nullptr;

  // Shared by every point: instruction and toggle counts are structural
  // (one instruction is one issue slot at any point).
  InstrCount instructions_ = 0;
  std::uint64_t toggles_ = 0;
};

}  // namespace selcache::cpu
