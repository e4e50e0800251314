#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../stats/sort_then_interpolate.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::serve {
namespace {

using test::bits;

/// Checks `stats` against the same span of every entry as millisecond
/// doubles: the mean summed in log order, the max, and sort-then-
/// interpolate percentiles, bit for bit.
void expect_exact(const LatencyStats& stats, const std::vector<double>& ms,
                  const std::string& where) {
  ASSERT_EQ(stats.count, ms.size()) << where;
  double sum = 0.0;
  double max = ms.front();
  for (const double v : ms) {
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(bits(stats.mean_ms), bits(sum / static_cast<double>(ms.size())))
      << where;
  EXPECT_EQ(bits(stats.max_ms), bits(max)) << where;
  const std::vector<double> pct =
      test::sort_then_interpolate(ms, {0.50, 0.95, 0.99, 0.999});
  EXPECT_EQ(bits(stats.pct.p50), bits(pct[0])) << where << " p50";
  EXPECT_EQ(bits(stats.pct.p95), bits(pct[1])) << where << " p95";
  EXPECT_EQ(bits(stats.pct.p99), bits(pct[2])) << where << " p99";
  EXPECT_EQ(bits(stats.pct.p999), bits(pct[3])) << where << " p999";
}

/// A served-job log of `n` entries in the given shape. Waits are 0 for
/// more than half the jobs (an idle device) except in "equal", where every
/// job waits and runs the same time.
std::vector<JobTimes> make_log(const std::string& shape, std::size_t n,
                               Rng& rng) {
  std::vector<JobTimes> log(n);
  SimTime arrival = 0;
  for (JobTimes& times : log) {
    arrival += static_cast<SimTime>(rng.next_below(5 * kMicrosecond));
    SimTime wait = 0;
    SimTime service = 0;
    if (shape == "equal") {
      wait = 7 * kMicrosecond + 3;
      service = 11 * kMicrosecond;
    } else {
      if (rng.next_double() < 0.4) {
        wait = static_cast<SimTime>(rng.next_below(40 * kMicrosecond));
      }
      service = 2 * kMicrosecond +
                static_cast<SimTime>(rng.next_below(kMicrosecond));
      if (shape == "wide") {
        // Outliers up to 2^40 ps: the top-level buckets span 2^24 ps, so
        // a rank takes three counting levels to pin.
        if (rng.next_below(50) == 0) {
          service += static_cast<SimTime>(rng.next_below(std::uint64_t{1}
                                                         << 40));
        }
        if (rng.next_below(50) == 0) {
          wait += static_cast<SimTime>(rng.next_below(std::uint64_t{1} << 36));
        }
      }
    }
    times = {arrival, arrival + wait, arrival + wait + service};
  }
  return log;
}

void expect_exact_log(const std::vector<JobTimes>& log,
                      const std::string& where) {
  Outcomes outcomes;
  outcomes.served = log;
  std::vector<double> latency_ms;
  std::vector<double> wait_ms;
  for (const JobTimes& times : log) {
    latency_ms.push_back(to_millis(times.latency()));
    wait_ms.push_back(to_millis(times.queue_wait()));
  }
  OutcomeStats both;
  LatencyStats wait;
  both.fill(outcomes, &wait);
  expect_exact(both.latency, latency_ms, where + " latency");
  expect_exact(wait, wait_ms, where + " queue wait");
  // Without the queue wait (a fleet's report), the latency is the same.
  OutcomeStats alone;
  alone.fill(outcomes);
  expect_exact(alone.latency, latency_ms, where + " latency alone");
}

TEST(OutcomeStatsTest, SelectionMatchesSortThenInterpolateBitForBit) {
  Rng rng(29);
  std::vector<std::size_t> sizes = {1,   2,   3,    4,    5,    7,    10,  99,
                                    100, 101, 999, 1000, 1001, 1024, 4096};
  for (int i = 0; i < 20; ++i) sizes.push_back(1 + rng.next_below(4096));
  for (const std::string shape : {"mixed", "equal", "wide"}) {
    for (const std::size_t n : sizes) {
      expect_exact_log(make_log(shape, n, rng),
                       shape + " n=" + std::to_string(n));
    }
    expect_exact_log(make_log(shape, 100000, rng), shape + " n=100000");
  }
}

TEST(OutcomeStatsTest, SelectionHandlesSingleAndZeroSpans) {
  // One job that never waited, and a log whose waits are all 0.
  expect_exact_log({{5, 5, 9}}, "single");
  std::vector<JobTimes> idle;
  for (SimTime t = 0; t < 3000; ++t) idle.push_back({t, t, 2 * t + 1});
  expect_exact_log(idle, "no waits");
}

TEST(OutcomeStatsTest, EmptyLogZeroFills) {
  OutcomeStats stats;
  LatencyStats wait;
  stats.fill(Outcomes{}, &wait);
  EXPECT_EQ(stats.latency.count, 0u);
  EXPECT_EQ(wait.count, 0u);
  EXPECT_EQ(bits(stats.latency.pct.p999), bits(0.0));
  EXPECT_EQ(bits(wait.max_ms), bits(0.0));
}

}  // namespace
}  // namespace ghs::serve
