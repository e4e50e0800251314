// Timeline report: turns a scraped Tsdb into the time-resolved summary
// the loadgens append next to their end-of-run aggregates — per-instance
// utilization and queue-depth statistics over time, plus "saturation
// windows": maximal runs of consecutive scrapes where an instance sat at
// (or beyond) its limit. A fleet whose aggregate p99 looks healthy can
// still show a node pinned for half a millisecond here; that transient is
// exactly what the end-of-run report hides.
//
// Per-node grouping falls out of the series keys: cluster instruments
// carry node="i" labels, so every node contributes its own series and the
// report lists them separately.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ghs/timeseries/tsdb.hpp"

namespace ghs::timeseries {

/// A utilization sample of at least 0.95, or a queue-depth sample of at
/// least 3/4 of `queue_capacity`, is saturated; two or more consecutive
/// saturated scrapes make a window.
struct TimelineOptions {
  /// The scrape interval (converts busy-ps deltas to utilization).
  SimTime interval = kMillisecond;
  std::size_t queue_capacity = 64;
};

/// Over-time statistics for one series (already scaled: utilization in
/// [0, ~], queue depth in jobs).
struct TimelineSeriesStats {
  std::string series;  // full store key
  std::int64_t samples = 0;
  double mean = 0.0;
  /// p95 of the raw (retained) samples; rollup-folded history contributes
  /// to mean/peak but has no distribution left to take a quantile of.
  double p95 = 0.0;
  double peak = 0.0;
  SimTime peak_at = 0;
};

/// One maximal run of two or more consecutive saturated scrapes.
struct SaturationWindow {
  std::string series;
  SimTime begin = 0;  // first saturated scrape instant
  SimTime end = 0;    // last saturated scrape instant
  std::int64_t points = 0;
  double peak = 0.0;
};

struct TimelineReport {
  SimTime interval = 0;
  std::vector<TimelineSeriesStats> utilization;
  std::vector<TimelineSeriesStats> queue_depth;
  std::vector<SaturationWindow> saturation;

  /// One JSON object, stable key order, fixed formatting.
  void write_json(std::ostream& os) const;
  /// Human summary (the loadgens print it to stderr).
  void write_table(std::ostream& os) const;
};

TimelineReport build_timeline(const Tsdb& store,
                              const TimelineOptions& options);

}  // namespace ghs::timeseries
