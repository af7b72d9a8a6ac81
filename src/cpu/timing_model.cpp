#include "cpu/timing_model.h"

#include <algorithm>

#include "support/bitutil.h"

namespace selcache::cpu {

TimingModel::TimingModel(CpuConfig cfg, memsys::Hierarchy& hierarchy,
                         hw::Controller& controller)
    : TimingModel({{cfg, hierarchy.config().mem.access_latency}}, hierarchy,
                  controller) {}

TimingModel::TimingModel(const std::vector<PricePoint>& points,
                         memsys::Hierarchy& hierarchy,
                         hw::Controller& controller)
    : hierarchy_(hierarchy),
      controller_(controller),
      mem_latency_(hierarchy.config().mem.access_latency) {
  SELCACHE_CHECK(!points.empty());
  model_ifetch_ = points.front().cpu.model_ifetch;
  points_.reserve(points.size());
  for (const PricePoint& p : points) {
    SELCACHE_CHECK(p.cpu.issue_width > 0);
    SELCACHE_CHECK(p.cpu.memory_ports > 0);
    SELCACHE_CHECK_MSG(p.cpu.model_ifetch == model_ifetch_,
                       "priced points disagree on model_ifetch");
    points_.emplace_back(p);
  }
  l1i_shift_ = log2_exact(hierarchy.config().l1i.block_size);
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

  // Cycles the RUU window can hide under a fresh miss shadow.
  const Cycle hide = p.cfg.ruu_entries / p.cfg.issue_width;
  if (p.inflight == 0) {
    // First miss of a shadow: the RUU keeps issuing under it, hiding up to
    // `hide` cycles; the remainder is exposed.
    const Cycle charged = extra > hide ? extra - hide : 0;
    p.mem_stall += charged;
    p.shadow_end = cycles(p) + (extra - charged);
    p.inflight = 1;
    ++p.serialized_misses;
    return;
  }

  if (p.inflight < p.cfg.memory_ports) {
    // Overlaps with the outstanding miss(es): only the bandwidth floor is
    // exposed, and the shadow extends.
    ++p.inflight;
    ++p.overlapped_misses;
    p.mem_stall += std::min(extra, p.cfg.overlap_bandwidth_cycles);
    const Cycle completion = now + extra;
    if (completion > p.shadow_end) p.shadow_end = completion;
    return;
  }

  // All memory ports busy: stall until the shadow drains, then behave like
  // a fresh first-miss.
  p.mem_stall += p.shadow_end - now;
  const Cycle charged = extra > hide ? extra - hide : 0;
  p.mem_stall += charged;
  p.shadow_end = cycles(p) + (extra - charged);
  p.inflight = 1;
  ++p.serialized_misses;
}

void TimingModel::export_stats(StatSet& out, std::size_t point) const {
  const Pricing& p = points_[point];
  out.add("cpu.instructions", instructions_);
  out.add("cpu.cycles", cycles(p));
  out.add("cpu.mem_stall_cycles", p.mem_stall);
  out.add("cpu.branch_penalty_cycles", p.branch_stall);
  out.add("cpu.toggle_stall_cycles", toggles_ * p.cfg.toggle_latency);
  out.add("cpu.overlapped_misses", p.overlapped_misses);
  out.add("cpu.serialized_misses", p.serialized_misses);
  p.bpred.export_stats(out);
}

}  // namespace selcache::cpu
