#include "trace/recorder.h"

#include "support/check.h"

namespace selcache::trace {

Recorder::Recorder(Recording& out, std::uint64_t epoch_length)
    : out_(out), epoch_length_(epoch_length) {
  SELCACHE_CHECK(epoch_length_ > 0);
}

void Recorder::register_source(std::function<void(StatSet&)> exporter) {
  sources_.push_back(std::move(exporter));
}

void Recorder::snapshot() {
  StatSet cum;
  for (const auto& src : sources_) src(cum);

  EpochRecord rec;
  rec.index = epochs_emitted_;
  rec.start_access = epoch_start_;
  rec.end_access = accesses_;
  rec.deltas = cum.delta_from(prev_);

  prev_ = std::move(cum);
  epoch_start_ = accesses_;
  ++epochs_emitted_;
  out_.epochs.push_back(std::move(rec));
}

void Recorder::finish() {
  // Emit the tail even when no access landed in it: end-of-run counter
  // movement (e.g. drains) still belongs to some epoch.
  if (accesses_ > epoch_start_ || epochs_emitted_ == 0) snapshot();
}

}  // namespace selcache::trace
