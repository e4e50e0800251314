#include "ghs/timeseries/tsdb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <sstream>
#include <vector>

#include "ghs/timeseries/export.hpp"
#include "ghs/timeseries/query.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::timeseries {
namespace {

TsdbOptions tiny_options() {
  TsdbOptions options;
  options.raw_capacity = 8;
  options.fold = 4;
  options.tier_capacity = 4;
  options.tiers = 2;
  return options;
}

/// Appends n samples value = i at 1us spacing.
void fill(Series& series, int n, int start = 0) {
  for (int i = start; i < start + n; ++i) {
    series.append(i * kMicrosecond, static_cast<double>(i));
  }
}

TEST(RollupTest, FoldTracksMinMeanMaxLast) {
  Rollup rollup;
  rollup.fold(Sample{1, 3.0});
  rollup.fold(Sample{2, 1.0});
  rollup.fold(Sample{3, 2.0});
  EXPECT_EQ(rollup.begin, 1);
  EXPECT_EQ(rollup.end, 3);
  EXPECT_EQ(rollup.count, 3);
  EXPECT_DOUBLE_EQ(rollup.min, 1.0);
  EXPECT_DOUBLE_EQ(rollup.max, 3.0);
  EXPECT_DOUBLE_EQ(rollup.sum, 6.0);
  EXPECT_DOUBLE_EQ(rollup.mean(), 2.0);
  EXPECT_DOUBLE_EQ(rollup.last, 2.0);
}

TEST(RollupTest, MergeCombinesRanges) {
  Rollup a;
  a.fold(Sample{1, 1.0});
  a.fold(Sample{2, 5.0});
  Rollup b;
  b.fold(Sample{3, 3.0});
  b.fold(Sample{4, 4.0});
  a.merge(b);
  EXPECT_EQ(a.begin, 1);
  EXPECT_EQ(a.end, 4);
  EXPECT_EQ(a.count, 4);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
  EXPECT_DOUBLE_EQ(a.sum, 13.0);
  EXPECT_DOUBLE_EQ(a.last, 4.0);
}

TEST(SeriesTest, RawRingHoldsNewestSamples) {
  Tsdb store(tiny_options());
  Series& series = store.series("s", SeriesKind::kGauge);
  fill(series, 8);
  EXPECT_EQ(series.raw().size(), 8u);
  EXPECT_TRUE(series.tiers()[0].empty());
  // One more sample folds the oldest 4 into a tier-0 rollup.
  series.append(8 * kMicrosecond, 8.0);
  EXPECT_EQ(series.raw().size(), 5u);
  ASSERT_EQ(series.tiers()[0].size(), 1u);
  const Rollup& rollup = series.tiers()[0].front();
  EXPECT_EQ(rollup.count, 4);
  EXPECT_DOUBLE_EQ(rollup.min, 0.0);
  EXPECT_DOUBLE_EQ(rollup.max, 3.0);
  EXPECT_DOUBLE_EQ(rollup.last, 3.0);
}

TEST(SeriesTest, DownsamplingInvariants) {
  Tsdb store(tiny_options());
  Series& series = store.series("s", SeriesKind::kCounterDelta);
  Rng rng(7);
  double expected_sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double value = std::floor(rng.next_double() * 100.0);
    expected_sum += value;
    series.append(i * kMicrosecond, value);
  }
  EXPECT_EQ(series.points(), 1000);
  EXPECT_DOUBLE_EQ(series.total_sum(), expected_sum);

  // min <= mean <= max in every rollup of every tier.
  std::int64_t retained_points =
      static_cast<std::int64_t>(series.raw().size());
  double retained_sum = 0.0;
  for (const Sample& sample : series.raw()) retained_sum += sample.value;
  for (const auto& tier : series.tiers()) {
    for (const Rollup& rollup : tier) {
      EXPECT_LE(rollup.min, rollup.mean());
      EXPECT_LE(rollup.mean(), rollup.max);
      EXPECT_LE(rollup.begin, rollup.end);
      EXPECT_GT(rollup.count, 0);
      retained_points += rollup.count;
      retained_sum += rollup.sum;
    }
  }
  // Conservation: retained + dropped accounts for every appended sample and
  // every appended value (counter-delta totals survive folding).
  EXPECT_EQ(retained_points + series.dropped(), series.points());
  EXPECT_DOUBLE_EQ(retained_sum + series.dropped_sum(), expected_sum);
  // This run is long enough to overflow both tiers.
  EXPECT_GT(series.dropped(), 0);
}

TEST(SeriesTest, DropCountersOnlyAfterTiersFill) {
  Tsdb store(tiny_options());
  Series& series = store.series("s", SeriesKind::kGauge);
  // Capacity before drops: raw 8 + tier0 4*4 + tier1 4*16 = 88 samples;
  // the first drop needs one more fold cascade beyond that.
  fill(series, 88);
  EXPECT_EQ(series.dropped(), 0);
  fill(series, 200, 88);
  EXPECT_GT(series.dropped(), 0);
  EXPECT_EQ(store.total_dropped(), series.dropped());
}

TEST(SeriesTest, AppendRequiresMonotoneTime) {
  Tsdb store;
  Series& series = store.series("s", SeriesKind::kGauge);
  series.append(10, 1.0);
  series.append(10, 2.0);  // equal is fine
  EXPECT_THROW(series.append(9, 3.0), Error);
}

TEST(TsdbTest, KindMismatchIsAnError) {
  Tsdb store;
  store.series("s", SeriesKind::kGauge);
  EXPECT_NO_THROW(store.series("s", SeriesKind::kGauge));
  EXPECT_THROW(store.series("s", SeriesKind::kCounterDelta), Error);
}

TEST(TsdbTest, VisitsInKeyOrder) {
  Tsdb store;
  store.series("b", SeriesKind::kGauge);
  store.series("a", SeriesKind::kGauge);
  store.series("c", SeriesKind::kGauge);
  std::vector<std::string> keys;
  store.visit([&](const Series& series) { keys.push_back(series.key()); });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SlidingWindowTest, MatchesBruteForce) {
  SlidingWindow window(10 * kMicrosecond);
  std::deque<Sample> brute;
  Rng rng(11);
  SimTime at = 0;
  for (int i = 0; i < 500; ++i) {
    at += static_cast<SimTime>(rng.next_double() * 3.0 *
                               static_cast<double>(kMicrosecond));
    const double value = std::floor(rng.next_double() * 10.0);
    window.push(at, value);
    brute.push_back(Sample{at, value});
    while (brute.front().at <= at - 10 * kMicrosecond) brute.pop_front();
    double brute_sum = 0.0;
    for (const Sample& sample : brute) brute_sum += sample.value;
    ASSERT_EQ(window.count(), static_cast<std::int64_t>(brute.size()));
    ASSERT_DOUBLE_EQ(window.sum(), brute_sum);
  }
}

TEST(SlidingWindowTest, MeanOfWindowedValues) {
  SlidingWindow window(5 * kMicrosecond);
  window.push(1 * kMicrosecond, 2.0);
  window.push(2 * kMicrosecond, 4.0);
  EXPECT_DOUBLE_EQ(window.mean(), 3.0);
  // Push far enough that both earlier samples leave the window.
  window.push(20 * kMicrosecond, 6.0);
  EXPECT_EQ(window.count(), 1);
  EXPECT_DOUBLE_EQ(window.mean(), 6.0);
}

TEST(ExportTest, JsonIsByteStableAndRoundTripsCounts) {
  const auto build = [] {
    Tsdb store(tiny_options());
    Series& gauge = store.series("g{node=\"0\"}", SeriesKind::kGauge);
    Series& counter = store.series("c", SeriesKind::kCounterDelta);
    for (int i = 0; i < 40; ++i) {
      gauge.append(i * kMicrosecond, static_cast<double>(i % 7));
      counter.append(i * kMicrosecond, static_cast<double>(i % 3));
    }
    return store;
  };
  const Tsdb a = build();
  const Tsdb b = build();
  std::ostringstream oa;
  std::ostringstream ob;
  const SeriesMeta meta{kMicrosecond, 40};
  write_series_json(oa, a, meta);
  write_series_json(ob, b, meta);
  EXPECT_EQ(oa.str(), ob.str());
  EXPECT_NE(oa.str().find("\"format\":\"ghs-series-v1\""), std::string::npos);
  EXPECT_NE(oa.str().find("g{node=\\\"0\\\"}"), std::string::npos);

  std::ostringstream oc;
  write_series_csv(oc, a, meta);
  EXPECT_NE(oc.str().find(
                "series,kind,tier,begin_ps,end_ps,count,min,mean,max,last"),
            std::string::npos);
}

TEST(ExportTest, CounterTracksScaleAndFilter)
{
  Tsdb store;
  Series& busy = store.series(
      "ghs_serve_device_busy_ps_total{device=\"gpu\"}",
      SeriesKind::kCounterDelta);
  // Busy 50% of each 1ms scrape interval.
  for (int i = 1; i <= 4; ++i) {
    busy.append(i * kMillisecond,
                0.5 * static_cast<double>(kMillisecond));
  }
  store.series("ghs_serve_unrelated_total", SeriesKind::kCounterDelta)
      .append(kMillisecond, 1.0);
  const auto tracks = counter_tracks(store, kMillisecond);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "utilization device=gpu");
  ASSERT_EQ(tracks[0].samples.size(), 4u);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].value, 0.5);
}

}  // namespace
}  // namespace ghs::timeseries
