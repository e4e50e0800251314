// Summary statistics: the arithmetic mean the paper's "average speedup"
// numbers use, and the quantiles behind every latency report and histogram
// export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ghs::stats {

/// Arithmetic mean; requires non-empty input.
double arithmetic_mean(const std::vector<double>& values);

/// Where q (in [0,1]) falls among n > 0 ascending values: between ranks
/// lo and hi = min(lo + 1, n - 1), frac of the way. Every quantile below
/// interpolates through it.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;

  /// The quantile, from the values at ranks lo and hi.
  double between(double at_lo, double at_hi) const {
    return at_lo + (at_hi - at_lo) * frac;
  }
};
Rank rank_of(std::size_t n, double q);

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

/// The latency-report percentile bundle (serve layer, benches): the
/// quantiles at kPercentileQs.
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};
inline constexpr double kPercentileQs[] = {0.50, 0.95, 0.99, 0.999};

/// p50/p95/p99/p999 of `values` through quantiles(). Empty input yields all
/// zeros; a single sample pins every percentile to that sample.
Percentiles percentiles(std::vector<double> values);

}  // namespace ghs::stats
