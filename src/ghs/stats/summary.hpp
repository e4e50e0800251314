// Streaming summary statistics (count/mean/min/max/variance) plus geometric
// mean, used when aggregating per-case speedups the way the paper reports
// "average speedup" numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ghs::stats {

class Summary {
 public:
  void add(double value);

  std::size_t count() const { return count_; }
  double mean() const;
  double min() const;
  double max() const;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
  double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Welford accumulator
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Geometric mean of strictly positive values.
double geometric_mean(const std::vector<double>& values);

/// Arithmetic mean; requires non-empty input.
double arithmetic_mean(const std::vector<double>& values);

/// Exact percentile (q in [0,1], linear interpolation); quantiles() with
/// one q.
double percentile(std::vector<double> values, double q);

/// The interpolation primitive behind percentile()/quantiles() and the
/// telemetry histogram exporter: quantile of already-ascending values,
/// linear between neighbours.
double sorted_quantile(const std::vector<double>& sorted_values, double q);

/// Quantiles at each q of `qs` (all in [0,1], any order, repeats allowed);
/// requires non-empty, NaN-free values. Each is sorted_quantile() of the
/// sorted values bit for bit (-0.0 and 0.0 compare equal, so either may
/// stand at a rank, as under a sort), but only the two ranks it reads are
/// selected (std::nth_element, ascending), so a few quantiles of n values
/// cost O(n) instead of a sort. Move a buffer in to skip the copy.
std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// Quantile estimate from fixed histogram buckets: `upper_bounds` are the
/// ascending finite bucket bounds and `cumulative_counts` the cumulative
/// per-bucket counts with one extra trailing +Inf entry (the total).
/// Linear interpolation inside the crossing bucket; observations beyond the
/// last finite bound clamp to it. Requires a non-zero total.
double histogram_quantile(const std::vector<double>& upper_bounds,
                          const std::vector<std::int64_t>& cumulative_counts,
                          double q);

/// The latency-report percentile bundle (serve layer, benches).
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// p50/p95/p99/p999 of `values` through quantiles(). Empty input yields all
/// zeros; a single sample pins every percentile to that sample.
Percentiles percentiles(std::vector<double> values);

}  // namespace ghs::stats
