#include "ghs/timeseries/tsdb.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"

namespace ghs::timeseries {

void Rollup::fold(const Sample& sample) {
  if (count == 0) {
    begin = sample.at;
    min = sample.value;
    max = sample.value;
  } else {
    min = std::min(min, sample.value);
    max = std::max(max, sample.value);
  }
  end = sample.at;
  ++count;
  sum += sample.value;
  last = sample.value;
}

void Rollup::merge(const Rollup& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  end = other.end;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  last = other.last;
}

const char* series_kind_name(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kCounterDelta:
      return "counter_delta";
    case SeriesKind::kQuantile:
      return "quantile";
  }
  return "unknown";
}

std::string short_labels(const std::string& key) {
  const auto brace = key.find('{');
  if (brace == std::string::npos) return {};
  std::string out;
  for (std::size_t i = brace + 1; i + 1 < key.size(); ++i) {
    if (key[i] != '"') out.push_back(key[i]);
  }
  return out;
}

Series::Series(std::string key, SeriesKind kind, const TsdbOptions& options)
    : key_(std::move(key)), kind_(kind), options_(options) {
  tiers_.resize(options.tiers);
}

void Series::append(SimTime at, double value) {
  GHS_REQUIRE(at >= last_at_,
              "series " << key_ << ": non-monotone sample at " << at);
  last_at_ = at;
  last_value_ = value;
  ++points_;
  total_sum_ += value;
  raw_.push_back(Sample{at, value});
  if (raw_.size() > options_.raw_capacity) fold_raw();
}

double Series::last_value() const { return points_ > 0 ? last_value_ : 0.0; }

void Series::fold_raw() {
  const std::size_t take = std::min(std::max<std::size_t>(options_.fold, 1),
                                    raw_.size());
  Rollup rollup;
  for (std::size_t i = 0; i < take; ++i) {
    rollup.fold(raw_.front());
    raw_.pop_front();
  }
  push_rollup(0, rollup);
}

void Series::push_rollup(std::size_t tier, Rollup rollup) {
  if (tier >= tiers_.size()) {
    // Past the last tier: the data leaves retention, but its accounting
    // does not — dropped_sum keeps the conservation invariant checkable.
    dropped_points_ += rollup.count;
    dropped_sum_ += rollup.sum;
    return;
  }
  auto& ring = tiers_[tier];
  ring.push_back(rollup);
  if (ring.size() > options_.tier_capacity) {
    const std::size_t take =
        std::min(std::max<std::size_t>(options_.fold, 1), ring.size());
    Rollup merged;
    for (std::size_t i = 0; i < take; ++i) {
      merged.merge(ring.front());
      ring.pop_front();
    }
    push_rollup(tier + 1, merged);
  }
}

Tsdb::Tsdb(TsdbOptions options) : options_(options) {
  GHS_REQUIRE(options_.raw_capacity > 0, "raw_capacity must be positive");
  GHS_REQUIRE(options_.fold > 0, "fold must be positive");
  GHS_REQUIRE(options_.tiers == 0 || options_.tier_capacity > 0,
              "tier_capacity must be positive with tiers configured");
}

Series& Tsdb::series(const std::string& key, SeriesKind kind) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series(key, kind, options_)).first;
  } else {
    GHS_REQUIRE(it->second.kind() == kind,
                "series " << key << " is " << series_kind_name(
                    it->second.kind()) << ", asked for "
                          << series_kind_name(kind));
  }
  return it->second;
}

const Series* Tsdb::find(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::int64_t Tsdb::total_points() const {
  std::int64_t total = 0;
  for (const auto& [key, series] : series_) total += series.points();
  return total;
}

std::int64_t Tsdb::total_dropped() const {
  std::int64_t total = 0;
  for (const auto& [key, series] : series_) total += series.dropped();
  return total;
}

void Tsdb::visit(const std::function<void(const Series&)>& fn) const {
  for (const auto& [key, series] : series_) fn(series);
}

}  // namespace ghs::timeseries
