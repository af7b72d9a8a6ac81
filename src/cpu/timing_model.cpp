#include "cpu/timing_model.h"

#include <algorithm>

#include "support/bitutil.h"

namespace selcache::cpu {

TimingModel::TimingModel(CpuConfig cfg, memsys::Hierarchy& hierarchy,
                         hw::Controller& controller)
    : TimingModel(cfg, {hierarchy.config().mem.access_latency}, hierarchy,
                  controller) {}

TimingModel::TimingModel(const CpuConfig& cfg,
                         const std::vector<Cycle>& mem_latencies,
                         memsys::Hierarchy& hierarchy,
                         hw::Controller& controller, BimodalPredictor* bpred)
    : cfg_(cfg),
      hierarchy_(hierarchy),
      controller_(controller),
      bpred_(bpred),
      mem_latency_(hierarchy.config().mem.access_latency) {
  SELCACHE_CHECK(!mem_latencies.empty());
  SELCACHE_CHECK(cfg_.issue_width > 0);
  SELCACHE_CHECK(cfg_.memory_ports > 0);
  hide_ = cfg_.ruu_entries / cfg_.issue_width;
  points_.reserve(mem_latencies.size());
  for (Cycle lat : mem_latencies) points_.push_back({.mem_latency = lat});
  if (bpred_ == nullptr) bpred_ = &own_bpred_.emplace(cfg_.bimodal_entries);
  l1i_shift_ = log2_exact(hierarchy.config().l1i.block_size);
}

TimingModel::TimingModel(TimingModel& twin, std::size_t first,
                         memsys::Hierarchy& hierarchy,
                         hw::Controller& controller)
    : cfg_(twin.cfg_),
      hide_(twin.hide_),
      hierarchy_(hierarchy),
      controller_(controller),
      own_bpred_(twin.own_bpred_),
      bpred_(own_bpred_ ? &*own_bpred_ : twin.bpred_),
      mem_latency_(twin.mem_latency_),
      l1i_shift_(twin.l1i_shift_),
      instructions_(twin.instructions_),
      toggles_(twin.toggles_),
      branch_stall_(twin.branch_stall_) {
  SELCACHE_CHECK(first < twin.points_.size());
  const std::uint64_t markers = twin.points_[first].markers;
  take_points(twin, first);
  for (Pricing& p : points_) {
    SELCACHE_CHECK_MSG(p.markers == markers,
                       "forked points disagree on their markers");
    p.markers = 0;
  }
  instructions_ += markers;
  toggles_ += markers;
}

void TimingModel::take_points(TimingModel& from, std::size_t first) {
  SELCACHE_CHECK(first <= from.points_.size());
  SELCACHE_CHECK_MSG(from.cfg_ == cfg_ &&
                         from.instructions_ == instructions_ &&
                         from.toggles_ == toggles_ &&
                         from.branch_stall_ == branch_stall_ &&
                         from.mem_latency_ == mem_latency_,
                     "points move only between models of one stream");
  const auto tail = from.points_.begin() + static_cast<std::ptrdiff_t>(first);
  points_.insert(points_.end(), std::make_move_iterator(tail),
                 std::make_move_iterator(from.points_.end()));
  from.points_.erase(tail, from.points_.end());
}

void TimingModel::price_data(Outcome o, bool halve, bool dependent) {
  const Cycle l1 = hierarchy_.config().l1d.latency;
  for (Pricing& p : points_) {
    const Cycle lat = latency_at(p, o);
    if (lat <= l1) continue;
    const Cycle extra = halve ? (lat - l1) / 2 : lat - l1;
    if (extra > 0) charge_memory(p, extra, dependent);
  }
}

void TimingModel::price_ifetch(Outcome o) {
  const Cycle l1 = hierarchy_.config().l1i.latency;
  for (Pricing& p : points_) {
    const Cycle lat = latency_at(p, o);
    if (lat > l1) p.mem_stall += (lat - l1) / 2;
  }
}

void TimingModel::charge_memory(Pricing& p, Cycle extra, bool dependent) {
  const Cycle now = cycles(p);
  if (now >= p.shadow_end) p.inflight = 0;

  if (dependent) {
    // Address-dependent chain: wait out any outstanding shadow, then pay in
    // full. No MLP for pointer chasing.
    if (now < p.shadow_end) p.mem_stall += p.shadow_end - now;
    p.mem_stall += extra;
    p.shadow_end = cycles(p);
    p.inflight = 0;
    ++p.serialized_misses;
    return;
  }

  if (p.inflight == 0) {
    // First miss of a shadow: the RUU keeps issuing under it, hiding up to
    // hide_ cycles; the remainder is exposed.
    const Cycle charged = extra > hide_ ? extra - hide_ : 0;
    p.mem_stall += charged;
    p.shadow_end = cycles(p) + (extra - charged);
    p.inflight = 1;
    ++p.serialized_misses;
    return;
  }

  if (p.inflight < cfg_.memory_ports) {
    // Overlaps with the outstanding miss(es): only the bandwidth floor is
    // exposed, and the shadow extends.
    ++p.inflight;
    ++p.overlapped_misses;
    p.mem_stall += std::min(extra, cfg_.overlap_bandwidth_cycles);
    const Cycle completion = now + extra;
    if (completion > p.shadow_end) p.shadow_end = completion;
    return;
  }

  // All memory ports busy: stall until the shadow drains, then behave like
  // a fresh first-miss.
  p.mem_stall += p.shadow_end - now;
  const Cycle charged = extra > hide_ ? extra - hide_ : 0;
  p.mem_stall += charged;
  p.shadow_end = cycles(p) + (extra - charged);
  p.inflight = 1;
  ++p.serialized_misses;
}

void TimingModel::export_stats(StatSet& out, std::size_t point) const {
  const Pricing& p = points_[point];
  out.add("cpu.instructions", instructions_ + p.markers);
  out.add("cpu.cycles", cycles(p));
  out.add("cpu.mem_stall_cycles", p.mem_stall);
  out.add("cpu.branch_penalty_cycles", branch_stall_);
  out.add("cpu.toggle_stall_cycles",
          (toggles_ + p.markers) * cfg_.toggle_latency);
  out.add("cpu.overlapped_misses", p.overlapped_misses);
  out.add("cpu.serialized_misses", p.serialized_misses);
  bpred_->export_stats(out);
}

}  // namespace selcache::cpu
