// Timeline post-pass: fold a Recording into one row per epoch with the
// phase metrics the paper's argument lives on — miss rate, bypass fraction,
// toggle count, and which region held the hardware mechanism. This is the
// table you look at to see a uniform region flip between compiler-friendly
// and irregular phases, instead of a single end-of-run number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/recording.h"

namespace selcache::trace {

struct TimelineRow {
  std::uint64_t epoch = 0;
  std::uint64_t start_access = 0;
  std::uint64_t end_access = 0;
  /// Region whose ON marker last fired at or before the end of this epoch
  /// (-1 = none / marker without provenance).
  std::int32_t region = -1;
  /// Hardware mechanism active at the end of this epoch.
  bool hw_on = false;

  // Per-epoch deltas.
  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l1d_fills = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t toggles = 0;     ///< ON/OFF instructions executed this epoch
  std::uint64_t mat_decays = 0;
  std::uint64_t promotions = 0;  ///< victim-cache promotions (L1 + L2)

  double l1d_miss_rate() const {
    const std::uint64_t n = l1d_hits + l1d_misses;
    return n == 0 ? 0.0 : static_cast<double>(l1d_misses) /
                              static_cast<double>(n);
  }
  /// Fraction of L1D fill decisions that bypassed the cache.
  double bypass_fraction() const {
    const std::uint64_t n = l1d_fills + bypasses;
    return n == 0 ? 0.0 : static_cast<double>(bypasses) /
                              static_cast<double>(n);
  }
};

/// One row per epoch, region state threaded through the toggle events.
std::vector<TimelineRow> build_timeline(const Recording& rec);

/// Human-readable table (support::TextTable formatting).
std::string timeline_table(const std::string& title,
                           const std::vector<TimelineRow>& rows);

/// CSV header shared by timeline_csv() emissions.
std::string timeline_csv_header();

/// CSV rows (no header) tagged with workload/version, `%.6f` rates so the
/// output is bit-stable across platforms and thread counts.
std::string timeline_csv(const std::vector<TimelineRow>& rows,
                         const std::string& workload,
                         const std::string& version);

}  // namespace selcache::trace
