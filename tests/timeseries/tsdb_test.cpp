#include "ghs/timeseries/tsdb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "ghs/timeseries/export.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::timeseries {
namespace {

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
  Tsdb store;
  Series& series = store.series("s", SeriesKind::kGauge);
  fill(series, 512);
  EXPECT_EQ(series.raw().size(), 512u);
  EXPECT_TRUE(series.tiers()[0].empty());
  // One more sample folds the oldest 8 into a tier-0 rollup.
  series.append(512 * kMicrosecond, 512.0);
  EXPECT_EQ(series.raw().size(), 505u);
  ASSERT_EQ(series.tiers()[0].size(), 1u);
  const Rollup& rollup = series.tiers()[0].front();
  EXPECT_EQ(rollup.count, 8);
  EXPECT_DOUBLE_EQ(rollup.min, 0.0);
  EXPECT_DOUBLE_EQ(rollup.max, 7.0);
  EXPECT_DOUBLE_EQ(rollup.last, 7.0);
}

TEST(SeriesTest, DownsamplingInvariants) {
  Tsdb store;
  Series& series = store.series("s", SeriesKind::kCounterDelta);
  Rng rng(7);
  double expected_sum = 0.0;
  for (int i = 0; i < 25000; ++i) {
    const double value = std::floor(rng.next_double() * 100.0);
    expected_sum += value;
    series.append(i * kMicrosecond, value);
  }
  EXPECT_EQ(series.points(), 25000);
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
  Tsdb store;
  Series& series = store.series("s", SeriesKind::kGauge);
  // Capacity before drops: raw 512 + tier0 256*8 + tier1 256*64 = 18944
  // samples; the next sample folds the oldest 8 tier-1 rollups (64 samples
  // each) past the last tier.
  fill(series, 18944);
  EXPECT_EQ(series.dropped(), 0);
  fill(series, 1, 18944);
  EXPECT_EQ(series.dropped(), 512);
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

TEST(ExportTest, JsonIsByteStableAndRoundTripsCounts) {
  // Enough samples to put rollups in both tiers.
  const auto build = [] {
    Tsdb store;
    Series& gauge = store.series("g{node=\"0\"}", SeriesKind::kGauge);
    Series& counter = store.series("c", SeriesKind::kCounterDelta);
    for (int i = 0; i < 3000; ++i) {
      gauge.append(i * kMicrosecond, static_cast<double>(i % 7));
      counter.append(i * kMicrosecond, static_cast<double>(i % 3));
    }
    return store;
  };
  const Tsdb a = build();
  const Tsdb b = build();
  ASSERT_FALSE(a.find("c")->tiers()[1].empty());
  std::ostringstream oa;
  std::ostringstream ob;
  const SeriesMeta meta{kMicrosecond, 3000};
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
