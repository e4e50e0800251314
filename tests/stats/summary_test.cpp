#include "ghs/stats/summary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::stats {
namespace {

TEST(SummaryTest, EmptySummaryThrowsOnAccess) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.max(), Error);
}

TEST(SummaryTest, SingleValue) {
  Summary s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, KnownMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SummaryTest, NegativeValues) {
  Summary s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(SummaryTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({5.0}), 5.0);
}

TEST(SummaryTest, GeometricMeanRejectsNonPositive) {
  EXPECT_THROW(geometric_mean({}), Error);
  EXPECT_THROW(geometric_mean({1.0, 0.0}), Error);
  EXPECT_THROW(geometric_mean({1.0, -2.0}), Error);
}

TEST(SummaryTest, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(arithmetic_mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_THROW(arithmetic_mean({}), Error);
}

TEST(SummaryTest, PercentileEndpoints) {
  std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(SummaryTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(SummaryTest, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
  EXPECT_THROW(percentile({1.0}, 1.1), Error);
}

TEST(SummaryTest, PercentilesBundleMatchesPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(static_cast<double>(i));
  const auto p = percentiles(v);
  EXPECT_DOUBLE_EQ(p.p50, percentile(v, 0.50));
  EXPECT_DOUBLE_EQ(p.p95, percentile(v, 0.95));
  EXPECT_DOUBLE_EQ(p.p99, percentile(v, 0.99));
  EXPECT_DOUBLE_EQ(p.p50, 50.5);
}

TEST(SummaryTest, PercentilesSingleValue) {
  const auto p = percentiles({7.5});
  EXPECT_DOUBLE_EQ(p.p50, 7.5);
  EXPECT_DOUBLE_EQ(p.p95, 7.5);
  EXPECT_DOUBLE_EQ(p.p99, 7.5);
  EXPECT_DOUBLE_EQ(p.p999, 7.5);
}

TEST(SummaryTest, PercentilesIncludeP999) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const auto p = percentiles(v);
  EXPECT_DOUBLE_EQ(p.p999, percentile(v, 0.999));
  EXPECT_GT(p.p999, p.p99);
}

TEST(SummaryTest, QuantilesArbitraryListInOneSort) {
  std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  const auto qs = quantiles(v, {0.0, 0.5, 1.0, 0.25});
  ASSERT_EQ(qs.size(), 4u);
  EXPECT_DOUBLE_EQ(qs[0], 1.0);
  EXPECT_DOUBLE_EQ(qs[1], 5.0);
  EXPECT_DOUBLE_EQ(qs[2], 9.0);
  EXPECT_DOUBLE_EQ(qs[3], percentile(v, 0.25));
  EXPECT_TRUE(quantiles({1.0}, {}).empty());
  EXPECT_THROW(quantiles({}, {0.5}), Error);
  EXPECT_THROW(quantiles({1.0}, {1.5}), Error);
}

TEST(SummaryTest, SortedQuantileIsThePrimitive) {
  const std::vector<double> sorted = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(sorted_quantile(sorted, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(sorted_quantile(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sorted_quantile(sorted, 1.0), 10.0);
  EXPECT_THROW(sorted_quantile({}, 0.5), Error);
  EXPECT_THROW(sorted_quantile(sorted, -0.1), Error);
}

TEST(SummaryTest, HistogramQuantileInterpolatesCrossingBucket) {
  // Bounds (0,10] (10,20]; 4 observations in the first, 4 in the second.
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<std::int64_t> cumulative = {4, 8, 8};
  // Median sits at the first/second bucket boundary.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cumulative, 0.5), 10.0);
  // q=1 lands at the top of the last populated finite bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cumulative, 1.0), 20.0);
  // Inside the second bucket the estimate interpolates between 10 and 20.
  const double p75 = histogram_quantile(bounds, cumulative, 0.75);
  EXPECT_GT(p75, 10.0);
  EXPECT_LE(p75, 20.0);
}

TEST(SummaryTest, HistogramQuantileClampsOverflowToLastBound) {
  // All mass in the +Inf bucket: the estimate clamps to the last finite
  // bound instead of inventing an infinite latency.
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::int64_t> cumulative = {0, 0, 5};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, cumulative, 0.99), 2.0);
}

TEST(SummaryTest, HistogramQuantileRejectsBadInput) {
  const std::vector<double> bounds = {1.0};
  EXPECT_THROW(histogram_quantile(bounds, {0, 0}, 0.5), Error);  // total 0
  EXPECT_THROW(histogram_quantile(bounds, {1}, 0.5), Error);  // size mismatch
  EXPECT_THROW(histogram_quantile(bounds, {1, 1}, 1.5), Error);
}

/// The quantiles the selection replaced: sort a copy, then interpolate
/// between ranks lo and lo + 1 as sorted_quantile() did. Kept here in full
/// as the reference, so a fault in the library's shared rank arithmetic
/// cannot hide in both sides.
std::vector<double> sort_then_interpolate(std::vector<double> values,
                                          const std::vector<double>& qs) {
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  for (double q : qs) {
    const double idx = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    out.push_back(values[lo] + (values[hi] - values[lo]) * frac);
  }
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// One input vector of `n` values in the given shape.
std::vector<double> make_values(const std::string& shape, std::size_t n,
                                Rng& rng) {
  std::vector<double> values(n);
  for (double& v : values) {
    if (shape == "ties") {
      v = static_cast<double>(rng.next_below(5)) * 0.75;
    } else if (shape == "equal") {
      v = 3.25;
    } else {
      v = (rng.next_double() - 0.25) * 1e3;
    }
  }
  if (shape == "sorted") std::sort(values.begin(), values.end());
  if (shape == "reversed") {
    std::sort(values.begin(), values.end(), std::greater<>());
  }
  return values;
}

TEST(SummaryTest, SelectionMatchesSortThenInterpolateBitForBit) {
  // Unsorted, with repeats, 0 and 1: the selection must handle any list.
  const std::vector<double> fixed_qs = {0.5,   0.99, 0.0, 1.0,  0.95, 0.5,
                                        0.999, 0.25, 1.0, 0.001, 0.0, 0.75};
  const std::vector<double> report_qs = {0.50, 0.95, 0.99, 0.999};
  Rng rng(17);
  std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 7, 10, 99, 100, 101,
                                    999, 1000, 1001, 1024, 4096};
  for (int i = 0; i < 40; ++i) sizes.push_back(1 + rng.next_below(4000));
  for (const std::string shape :
       {"random", "ties", "equal", "sorted", "reversed"}) {
    for (const std::size_t n : sizes) {
      const std::vector<double> values = make_values(shape, n, rng);
      std::vector<double> qs = fixed_qs;
      for (int k = 0; k < 6; ++k) qs.push_back(rng.next_double());
      const std::string where = shape + " n=" + std::to_string(n);

      const std::vector<double> want = sort_then_interpolate(values, qs);
      const std::vector<double> got = quantiles(values, qs);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t j = 0; j < qs.size(); ++j) {
        EXPECT_EQ(bits(got[j]), bits(want[j])) << where << " q=" << qs[j];
        EXPECT_EQ(bits(percentile(values, qs[j])), bits(want[j]))
            << where << " percentile q=" << qs[j];
      }

      const std::vector<double> pct = sort_then_interpolate(values, report_qs);
      const Percentiles p = percentiles(values);
      EXPECT_EQ(bits(p.p50), bits(pct[0])) << where;
      EXPECT_EQ(bits(p.p95), bits(pct[1])) << where;
      EXPECT_EQ(bits(p.p99), bits(pct[2])) << where;
      EXPECT_EQ(bits(p.p999), bits(pct[3])) << where;
    }
  }
}

TEST(SummaryTest, PercentilesOfEmptySeriesAreZero) {
  // Report code feeds whatever survived a run through here; "nothing
  // survived" must degrade to zeros, not throw.
  const Percentiles pct = percentiles({});
  EXPECT_DOUBLE_EQ(pct.p50, 0.0);
  EXPECT_DOUBLE_EQ(pct.p95, 0.0);
  EXPECT_DOUBLE_EQ(pct.p99, 0.0);
  EXPECT_DOUBLE_EQ(pct.p999, 0.0);
}

TEST(SummaryTest, PercentilesOfSingleSamplePinToThatSample) {
  const Percentiles pct = percentiles({3.5});
  EXPECT_DOUBLE_EQ(pct.p50, 3.5);
  EXPECT_DOUBLE_EQ(pct.p95, 3.5);
  EXPECT_DOUBLE_EQ(pct.p99, 3.5);
  EXPECT_DOUBLE_EQ(pct.p999, 3.5);
}

}  // namespace
}  // namespace ghs::stats
