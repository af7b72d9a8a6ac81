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
// drives the controller, the hierarchy and the branch predictor once per
// op; nothing it touches depends on main-memory latency. The pricing half —
// issue cycles, stalls, the MLP shadow — turns each access outcome and each
// branch outcome into cycles under the model's one CpuConfig. One model can
// hold k pricing states, its points: point i pays each main-memory fetch at
// its own latency L_i, so an access that made f fetches and took `lat`
// cycles on the hierarchy (whose memory latency is L_0) costs
// lat + f*(L_i - L_0) at point i — exactly what a hierarchy built with L_i
// would have returned. A plain run is k = 1. Branches cost every point the
// same, so the model keeps one branch stall for all of them.
//
// The stream side (the hierarchy's TLBs and L1I, and the predictor) sees
// only the op stream, so every model of one ride shares one (DESIGN §8):
// the ride runs it once per op and hands each model the outcome through
// the per-Simulation entry points (translated_load, translated_store,
// predicted_branch, fetched_block). A standalone model's entry points run
// its own stream side and then exactly those.
//
// Each point also carries its own count of ON/OFF marker instructions
// beyond the model's shared stream. A model's own points carry none; a
// version that differs from the model's only by its markers (Selective,
// while its machine is still the model's) prices as extra points whose
// markers cost issue slots and toggle cycles there (add_marker), until it
// moves to another model that made the same pass (take_points) or forks
// onto a copy of the machine of its own (the forking constructor).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "cpu/branch_predictor.h"
#include "hw/controller.h"
#include "memsys/hierarchy.h"
#include "support/bitutil.h"

namespace selcache::cpu {

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

  bool operator==(const CpuConfig&) const = default;
};

/// Calls fetch(a) for the base address a of every L1I block (1 << shift
/// bytes) that `n_instr` 4-byte instructions at `pc` span, in address order.
template <typename Fetch>
void for_each_code_block(Addr pc, std::uint32_t n_instr, unsigned shift,
                         Fetch&& fetch) {
  const std::uint32_t bytes = n_instr * 4;
  const Addr first = (pc >> shift) << shift;
  const Addr end = pc + (bytes > 0 ? bytes - 1 : 0);
  const Addr last = (end >> shift) << shift;
  for (Addr a = first; a <= last; a += Addr{1} << shift) fetch(a);
}

class TimingModel {
 public:
  /// One point, priced at the hierarchy's own memory latency.
  TimingModel(CpuConfig cfg, memsys::Hierarchy& hierarchy,
              hw::Controller& controller);

  /// One point per main-memory latency in `mem_latencies`, over one
  /// structural pass. The model runs `bpred` when given (a ride's shared
  /// predictor, built with cfg's bimodal_entries), else a predictor of its
  /// own.
  TimingModel(const CpuConfig& cfg, const std::vector<Cycle>& mem_latencies,
              memsys::Hierarchy& hierarchy, hw::Controller& controller,
              BimodalPredictor* bpred = nullptr);

  /// Points [first, points()) of `twin` leave it and go on as a model of
  /// their own, over `hierarchy` and `controller`, which hold the machine
  /// state twin's hierarchy held. The points' marker counts (all equal)
  /// fold into the new model's instruction and toggle counts. The new model
  /// has twin's CpuConfig, and shares twin's predictor when twin shares one,
  /// and copies it when twin owns it.
  TimingModel(TimingModel& twin, std::size_t first,
              memsys::Hierarchy& hierarchy, hw::Controller& controller);

  TimingModel(const TimingModel&) = delete;
  TimingModel& operator=(const TimingModel&) = delete;

  // The six entry points and the per-Simulation parts they end in are
  // defined inline: every simulated instruction passes through exactly one
  // of them, and together with the inline hierarchy hit path this keeps the
  // whole hit-case event in one call frame — the throughput floor of both
  // the IR interpreter and the trace-tape replay loop. A hit fetched
  // nothing from memory, so it costs the same at every point and returns
  // before the pricing loop.

  /// `n` plain ALU instructions.
  void compute(std::uint64_t n) { instructions_ += n; }

  /// One load instruction. `dependent` marks address-dependent loads
  /// (pointer chasing) that cannot overlap with outstanding misses.
  void load(Addr addr, bool dependent = false) {
    translated_load(addr, hierarchy_.stream().translate(addr), dependent);
  }

  /// One store instruction (write-allocate; retires through the LSQ).
  void store(Addr addr) {
    translated_store(addr, hierarchy_.stream().translate(addr));
  }

  /// One conditional branch at `pc` with actual outcome `taken`.
  void branch(Addr pc, bool taken) {
    predicted_branch(bpred_->predict_and_train(pc, taken));
  }

  /// One activate/deactivate instruction: flips the controller and pays the
  /// documented overhead (§4.1: "the performance overhead of ON/OFF
  /// instructions have also been taken into account"). `region` is the
  /// static source-region id the marker belongs to (-1 = unattributed).
  void toggle(bool on, std::int32_t region = -1) {
    ++instructions_;
    ++toggles_;
    controller_.toggle(on, region);
  }

  /// Fetch the code block(s) for `n_instr` instructions located at `pc`.
  void touch_code(Addr pc, std::uint32_t n_instr) {
    if (!cfg_.model_ifetch) return;
    for_each_code_block(pc, n_instr, l1i_shift_, [&](Addr a) {
      fetched_block(a, hierarchy_.stream().fetch(a));
    });
  }

  // The per-Simulation parts: what is left of load, store, branch and one
  // block of touch_code once the stream side has run. A ride calls them on
  // each of its models with the outcome of its one shared stream side.

  /// A load whose translation the stream side charged `tlb` cycles.
  void translated_load(Addr addr, Cycle tlb, bool dependent) {
    ++instructions_;
    controller_.tick();
    const Outcome o = measured(
        [&] { return hierarchy_.data(addr, /*is_write=*/false, tlb); });
    if (o.fetches == 0 && o.lat <= hierarchy_.config().l1d.latency) return;
    price_data(o, /*halve=*/false, dependent);
  }

  /// A store whose translation the stream side charged `tlb` cycles.
  void translated_store(Addr addr, Cycle tlb) {
    ++instructions_;
    controller_.tick();
    const Outcome o = measured(
        [&] { return hierarchy_.data(addr, /*is_write=*/true, tlb); });
    if (o.fetches == 0 && o.lat <= hierarchy_.config().l1d.latency) return;
    // Stores retire through the store queue; they only expose latency when
    // the LSQ would back up. Approximate by halving the exposed latency.
    price_data(o, /*halve=*/true, /*dependent=*/false);
  }

  /// A branch the predictor got right (`correct`) or wrong: a wrong one
  /// costs every point the redirect penalty.
  void predicted_branch(bool correct) {
    ++instructions_;
    if (!correct) branch_stall_ += cfg_.mispredict_penalty;
  }

  /// One I-fetch block at `addr` after the stream side's step `f`. A ride
  /// skips the blocks the stream side hit unless it records a trace: such
  /// a block only ticks the hierarchy's clocks.
  void fetched_block(Addr addr, memsys::StreamSide::Fetch f) {
    const Outcome o = measured([&] { return hierarchy_.fetch(addr, f); });
    if (o.fetches == 0 && o.lat <= hierarchy_.config().l1i.latency) return;
    price_ifetch(o);
  }

  /// One ON/OFF instruction of the version priced at points [first,
  /// points()) only: it costs those points an issue slot and a toggle
  /// cycle, and the model's own stream does not see it. The version's own
  /// controller executes the marker.
  void add_marker(std::size_t first) {
    for (std::size_t i = first; i < points_.size(); ++i) ++points_[i].markers;
  }

  /// Move points [first, points()) of `from`, state and all, to the end of
  /// this model. Both models must have one CpuConfig and have priced the
  /// same stream on hierarchies in the same state so far.
  void take_points(TimingModel& from, std::size_t first);

  /// Host-side prefetch of the hierarchy sets a future load/store at `addr`
  /// will probe. A pure performance hint for batched-replay lookahead — no
  /// simulator state, statistics, or trace events.
  void prefetch_data(Addr addr) const { hierarchy_.prefetch_data(addr); }

  /// Number of points this model prices (k).
  std::size_t points() const { return points_.size(); }

  Cycle cycles(std::size_t point = 0) const { return cycles(points_[point]); }
  InstrCount instructions(std::size_t point = 0) const {
    return instructions_ + points_[point].markers;
  }
  /// Cycles lost to exposed memory latency (diagnostic).
  Cycle memory_stall_cycles(std::size_t point = 0) const {
    return points_[point].mem_stall;
  }
  Cycle branch_penalty_cycles() const { return branch_stall_; }

  const BimodalPredictor& predictor() const { return *bpred_; }
  const CpuConfig& config() const { return cfg_; }

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
    Cycle mem_latency;
    Cycle mem_stall = 0;
    Cycle shadow_end = 0;        ///< cycle when outstanding misses resolve
    std::uint32_t inflight = 0;  ///< misses overlapped in current shadow
    std::uint64_t overlapped_misses = 0;
    std::uint64_t serialized_misses = 0;
    /// ON/OFF instructions of this point beyond the model's own (each one
    /// instruction and one toggle).
    std::uint64_t markers = 0;
  };

  /// The Outcome of `access`, one hierarchy access returning its latency.
  template <typename Access>
  Outcome measured(Access&& access) {
    const std::uint64_t reads = hierarchy_.memory().reads();
    const Cycle lat = access();
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
        (instructions_ + p.markers + cfg_.issue_width - 1) / cfg_.issue_width;
    return issue + p.mem_stall + branch_stall_ +
           (toggles_ + p.markers) * cfg_.toggle_latency;
  }

  /// Price a load/store beyond the pipelined L1D hit time at every point
  /// (out of line: misses only). `halve` is the store-queue discount.
  void price_data(Outcome o, bool halve, bool dependent);
  /// Price an I-fetch beyond the L1I hit time at every point; frontend
  /// stalls are partly absorbed by the fetch queue.
  void price_ifetch(Outcome o);
  /// Miss accounting (interval/MLP model) of `extra` exposed cycles.
  void charge_memory(Pricing& p, Cycle extra, bool dependent);

  CpuConfig cfg_;
  Cycle hide_ = 0;  ///< cycles the RUU hides under a fresh miss shadow
  memsys::Hierarchy& hierarchy_;
  hw::Controller& controller_;
  std::optional<BimodalPredictor> own_bpred_;  ///< set when not shared
  BimodalPredictor* bpred_;
  std::vector<Pricing> points_;
  Cycle mem_latency_ = 0;  ///< the hierarchy's memory latency (L_0)
  unsigned l1i_shift_ = 0;  ///< log2(l1i block size); validated pow2

  // Shared by every point: instruction and toggle counts are structural
  // (one instruction is one issue slot at any point), and so is the branch
  // stall. A point's markers add to the first two.
  InstrCount instructions_ = 0;
  std::uint64_t toggles_ = 0;
  Cycle branch_stall_ = 0;
};

}  // namespace selcache::cpu
