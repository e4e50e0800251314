// In-memory time-series store for scraped telemetry: one ring-buffered
// Series per instrument, with tiered downsampling so memory stays bounded
// no matter how long a simulation runs.
//
// Retention works like a miniature TSDB: the newest samples sit in a raw
// ring; when the ring is full, the oldest kFold samples collapse into one
// min/mean/max/last rollup pushed to tier 1; full tiers fold into the next
// tier the same way; rollups evicted past the last tier are counted (and
// their sums preserved) in per-series drop counters, so `sum()` over the
// retained data plus `dropped_sum()` always equals the sum of everything
// ever appended — the invariant the tests pin.
//
// Everything is deterministic: series are keyed by the instrument's
// rendered `name{labels}` string (plus a derived suffix like ":p95"),
// stored in a sorted map, and visited in key order, so exports are
// byte-stable across same-seed runs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ghs/util/units.hpp"

namespace ghs::timeseries {

/// One scraped point. For counter series the value is the delta since the
/// previous scrape, not the running total.
struct Sample {
  SimTime at = 0;
  double value = 0.0;
};

/// A downsampled run of consecutive samples: [begin, end] are the first
/// and last folded timestamps; min/mean/max/last summarise the values;
/// count and sum are exact, so counter-delta totals survive folding.
struct Rollup {
  SimTime begin = 0;
  SimTime end = 0;
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  void fold(const Sample& sample);
  void merge(const Rollup& other);
};

/// What a series' values mean; the scraper sets this and exporters echo it.
enum class SeriesKind : std::uint8_t {
  kGauge,         // point-in-time value per scrape
  kCounterDelta,  // increase since the previous scrape
  kQuantile,      // windowed quantile derived from histogram bucket deltas
};

const char* series_kind_name(SeriesKind kind);

/// The label block of a series key without braces or quotes
/// ("device=gpu,node=3"), or "" for an unlabelled key.
std::string short_labels(const std::string& key);

/// Raw samples kept per series before folding begins.
inline constexpr std::size_t kRawCapacity = 512;
/// Oldest points folded into one rollup when a ring overflows.
inline constexpr std::size_t kFold = 8;
/// Rollups kept per downsampling tier.
inline constexpr std::size_t kTierCapacity = 256;
/// Downsampling tiers behind the raw ring; rollups evicted past the last
/// tier are dropped (and counted).
inline constexpr std::size_t kTiers = 2;

class Series {
 public:
  Series(std::string key, SeriesKind kind);

  /// Appends one sample; `at` must be monotonically non-decreasing.
  void append(SimTime at, double value);

  const std::string& key() const { return key_; }
  SeriesKind kind() const { return kind_; }

  /// Total samples ever appended (retained + folded + dropped).
  std::int64_t points() const { return points_; }
  /// Sum of every value ever appended.
  double total_sum() const { return total_sum_; }
  /// Raw samples dropped past the last rollup tier, and their value sum.
  std::int64_t dropped() const { return dropped_points_; }
  double dropped_sum() const { return dropped_sum_; }

  /// Newest raw samples, oldest first.
  const std::deque<Sample>& raw() const { return raw_; }
  /// Rollup tiers, oldest first within each; tiers_[0] is the finest.
  const std::vector<std::deque<Rollup>>& tiers() const { return tiers_; }

  /// Last appended value (0 when empty) — the "current" reading.
  double last_value() const;

 private:
  void fold_raw();
  void push_rollup(std::size_t tier, Rollup rollup);

  std::string key_;
  SeriesKind kind_;
  std::deque<Sample> raw_;
  std::vector<std::deque<Rollup>> tiers_;
  std::int64_t points_ = 0;
  double total_sum_ = 0.0;
  std::int64_t dropped_points_ = 0;
  double dropped_sum_ = 0.0;
  SimTime last_at_ = -1;
  double last_value_ = 0.0;
};

class Tsdb {
 public:
  /// Returns the series for `key`, creating it on first use. Re-asking
  /// with a different kind is an error (one meaning per key).
  Series& series(const std::string& key, SeriesKind kind);

  /// Lookup without creation; null when the key was never written.
  const Series* find(const std::string& key) const;

  std::size_t size() const { return series_.size(); }

  /// Store-wide accounting across every series.
  std::int64_t total_points() const;
  std::int64_t total_dropped() const;

  /// Visits every series in key order (the export order).
  void visit(const std::function<void(const Series&)>& fn) const;

 private:
  std::map<std::string, Series> series_;
};

}  // namespace ghs::timeseries
