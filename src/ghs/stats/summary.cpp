#include "ghs/stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "ghs/util/error.hpp"

namespace ghs::stats {

void Summary::add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double Summary::mean() const {
  GHS_REQUIRE(count_ > 0, "mean of empty summary");
  return mean_;
}

double Summary::min() const {
  GHS_REQUIRE(count_ > 0, "min of empty summary");
  return min_;
}

double Summary::max() const {
  GHS_REQUIRE(count_ > 0, "max of empty summary");
  return max_;
}

double Summary::stddev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

double geometric_mean(const std::vector<double>& values) {
  GHS_REQUIRE(!values.empty(), "geometric mean of empty vector");
  double log_sum = 0.0;
  for (double v : values) {
    GHS_REQUIRE(v > 0.0, "geometric mean requires positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double arithmetic_mean(const std::vector<double>& values) {
  GHS_REQUIRE(!values.empty(), "mean of empty vector");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

/// Where q falls among n ascending values: between ranks lo and hi, frac
/// of the way.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double q) {
  GHS_REQUIRE(q >= 0.0 && q <= 1.0, "q=" << q);
  const double idx = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(idx);
  return {lo, std::min(lo + 1, n - 1), idx - static_cast<double>(lo)};
}

double interpolate(const std::vector<double>& ranked, const Rank& rank) {
  return ranked[rank.lo] + (ranked[rank.hi] - ranked[rank.lo]) * rank.frac;
}

}  // namespace

double sorted_quantile(const std::vector<double>& sorted_values, double q) {
  GHS_REQUIRE(!sorted_values.empty(), "quantile of empty vector");
  return interpolate(sorted_values, rank_of(sorted_values.size(), q));
}

double percentile(std::vector<double> values, double q) {
  GHS_REQUIRE(!values.empty(), "percentile of empty vector");
  return quantiles(std::move(values), {q}).front();
}

std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double>& qs) {
  GHS_REQUIRE(!values.empty(), "quantiles of empty vector");
  std::vector<Rank> ranks;
  ranks.reserve(qs.size());
  std::vector<std::size_t> needed;
  needed.reserve(2 * qs.size());
  for (double q : qs) {
    ranks.push_back(rank_of(values.size(), q));
    needed.push_back(ranks.back().lo);
    needed.push_back(ranks.back().hi);
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  // Select the needed ranks in ascending order. Once rank r is in place,
  // the positions after it hold exactly the values of the ranks above r,
  // so each selection searches only those, and every selected position
  // keeps its value: the sorted vector's value at that rank.
  auto unplaced = values.begin();
  for (const std::size_t rank : needed) {
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(unplaced, nth, values.end());
    unplaced = nth + 1;
  }
  std::vector<double> out;
  out.reserve(ranks.size());
  for (const Rank& rank : ranks) out.push_back(interpolate(values, rank));
  return out;
}

double histogram_quantile(const std::vector<double>& upper_bounds,
                          const std::vector<std::int64_t>& cumulative_counts,
                          double q) {
  GHS_REQUIRE(!upper_bounds.empty(), "histogram without buckets");
  GHS_REQUIRE(cumulative_counts.size() == upper_bounds.size() + 1,
              "cumulative counts must carry one trailing +Inf entry");
  GHS_REQUIRE(q >= 0.0 && q <= 1.0, "q=" << q);
  const double total = static_cast<double>(cumulative_counts.back());
  GHS_REQUIRE(total > 0.0, "histogram quantile of empty histogram");
  const double rank = q * total;
  std::size_t bucket = 0;
  while (bucket < upper_bounds.size() &&
         static_cast<double>(cumulative_counts[bucket]) < rank) {
    ++bucket;
  }
  // Everything at rank beyond the last finite bound clamps to that bound —
  // the +Inf bucket has no upper edge to interpolate towards.
  if (bucket == upper_bounds.size()) return upper_bounds.back();
  const double below =
      bucket == 0 ? 0.0 : static_cast<double>(cumulative_counts[bucket - 1]);
  const double in_bucket =
      static_cast<double>(cumulative_counts[bucket]) - below;
  const double lower = bucket == 0 ? 0.0 : upper_bounds[bucket - 1];
  const double frac =
      in_bucket > 0.0 ? (rank - below) / in_bucket : 1.0;
  // Within-bucket interpolation is the same primitive as value quantiles.
  return sorted_quantile({lower, upper_bounds[bucket]}, frac);
}

Percentiles percentiles(std::vector<double> values) {
  // Zero-filled for an empty series: report code feeds whatever survived a
  // run through here, and "nothing survived" (all jobs rejected or shed) is
  // a legitimate outcome, not a programming error.
  if (values.empty()) return Percentiles{};
  const auto qs = quantiles(std::move(values), {0.50, 0.95, 0.99, 0.999});
  return Percentiles{qs[0], qs[1], qs[2], qs[3]};
}

}  // namespace ghs::stats
