// build_timeline over a hand-filled Tsdb: per-series mean, p95, peak and
// peak time; saturation windows (two or more consecutive scrapes at or
// above the threshold, listed in time order); tenant series with stats but
// no windows; rolled-up history; and the JSON and table renderings.
#include "ghs/timeseries/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ghs/timeseries/tsdb.hpp"

namespace ghs::timeseries {
namespace {

/// A power-of-two scrape interval, so busy-ps deltas scale to the exact
/// dyadic utilizations written below.
constexpr SimTime kInterval = SimTime{1} << 20;

constexpr const char* kGpuBusy =
    "ghs_serve_device_busy_ps_total{device=\"gpu\",node=\"0\"}";
constexpr const char* kQueue = "ghs_serve_queue_depth{node=\"0\"}";
constexpr const char* kTenant =
    "ghs_profile_tenant_busy_ps_total{tenant=\"3\"}";

/// Appends values[k] at scrape k + 1, scaled by `scale`.
void fill(Tsdb& store, const char* key, SeriesKind kind,
          const std::vector<double>& values, double scale) {
  Series& series = store.series(key, kind);
  for (std::size_t k = 0; k < values.size(); ++k) {
    series.append(static_cast<SimTime>(k + 1) * kInterval, values[k] * scale);
  }
}

/// GPU utilization saturates at scrapes 2-3 and 7-9 and alone at 5; the
/// queue (capacity 8, so saturated at depth >= 6) at 4-6 and alone at 2
/// and 8; the tenant is pinned at 1.0 throughout.
Tsdb sample_store() {
  Tsdb store;
  const double busy = static_cast<double>(kInterval);
  fill(store, kGpuBusy, SeriesKind::kCounterDelta,
       {0.5, 1.0, 1.25, 0.25, 1.0, 0.5, 1.0, 1.0, 1.125, 0.25}, busy);
  fill(store, kQueue, SeriesKind::kGauge, {1, 6, 2, 8, 7, 8, 3, 6}, 1.0);
  fill(store, kTenant, SeriesKind::kCounterDelta, {1.0, 1.0, 1.0, 1.0}, busy);
  fill(store, "ghs_sim_events_total", SeriesKind::kCounterDelta,
       {5.0, 5.0, 5.0}, 1.0);
  return store;
}

TimelineOptions sample_options() {
  TimelineOptions options;
  options.interval = kInterval;
  options.queue_capacity = 8;
  return options;
}

TEST(TimelineReportTest, SeriesStatsScaleAndPlaceThePeak) {
  const TimelineReport report =
      build_timeline(sample_store(), sample_options());
  EXPECT_EQ(report.interval, kInterval);
  // The tenant series, then the device series (store key order).
  ASSERT_EQ(report.utilization.size(), 2u);
  const TimelineSeriesStats& tenant = report.utilization[0];
  EXPECT_EQ(tenant.series, kTenant);
  EXPECT_DOUBLE_EQ(tenant.mean, 1.0);
  EXPECT_DOUBLE_EQ(tenant.peak, 1.0);
  EXPECT_EQ(tenant.peak_at, kInterval);

  const TimelineSeriesStats& gpu = report.utilization[1];
  EXPECT_EQ(gpu.series, kGpuBusy);
  EXPECT_EQ(gpu.samples, 10);
  EXPECT_DOUBLE_EQ(gpu.mean, 0.7875);
  // Ranks 8 and 9 of 10 (1.125, 1.25), 55% of the way.
  EXPECT_DOUBLE_EQ(gpu.p95, 1.19375);
  EXPECT_DOUBLE_EQ(gpu.peak, 1.25);
  EXPECT_EQ(gpu.peak_at, 3 * kInterval);

  ASSERT_EQ(report.queue_depth.size(), 1u);
  const TimelineSeriesStats& queue = report.queue_depth[0];
  EXPECT_EQ(queue.series, kQueue);
  EXPECT_EQ(queue.samples, 8);
  EXPECT_DOUBLE_EQ(queue.mean, 41.0 / 8.0);
  EXPECT_DOUBLE_EQ(queue.p95, 8.0);
  // Depth 8 first at scrape 4 and again at 6: the first one is the peak.
  EXPECT_DOUBLE_EQ(queue.peak, 8.0);
  EXPECT_EQ(queue.peak_at, 4 * kInterval);
}

TEST(TimelineReportTest, WindowsNeedTwoSaturatedScrapesAndComeInTimeOrder) {
  const TimelineReport report =
      build_timeline(sample_store(), sample_options());
  // The lone saturated scrapes (GPU at 5, queue at 2 and 8) open no
  // window, and the tenant, pinned at 1.0 throughout, gets none either.
  ASSERT_EQ(report.saturation.size(), 3u);
  const SaturationWindow& first = report.saturation[0];
  EXPECT_EQ(first.series, kGpuBusy);
  EXPECT_EQ(first.begin, 2 * kInterval);
  EXPECT_EQ(first.end, 3 * kInterval);
  EXPECT_EQ(first.points, 2);
  EXPECT_DOUBLE_EQ(first.peak, 1.25);
  // The queue window sits between the GPU's two, though the store lists
  // both GPU windows first.
  const SaturationWindow& second = report.saturation[1];
  EXPECT_EQ(second.series, kQueue);
  EXPECT_EQ(second.begin, 4 * kInterval);
  EXPECT_EQ(second.end, 6 * kInterval);
  EXPECT_EQ(second.points, 3);
  EXPECT_DOUBLE_EQ(second.peak, 8.0);
  const SaturationWindow& third = report.saturation[2];
  EXPECT_EQ(third.series, kGpuBusy);
  EXPECT_EQ(third.begin, 7 * kInterval);
  EXPECT_EQ(third.end, 9 * kInterval);
  EXPECT_EQ(third.points, 3);
  EXPECT_DOUBLE_EQ(third.peak, 1.125);
}

TEST(TimelineReportTest, RolledUpHistoryCountsForMeanAndPeakOnly) {
  Tsdb store;
  // The first kFold of these scrapes, the depth-9 spike among them, fold
  // into one rollup when the raw ring overflows.
  std::vector<double> depths(kRawCapacity + kFold, 0.0);
  depths[0] = 9.0;
  fill(store, kQueue, SeriesKind::kGauge, depths, 1.0);
  const TimelineReport report = build_timeline(store, sample_options());
  ASSERT_EQ(report.queue_depth.size(), 1u);
  const TimelineSeriesStats& queue = report.queue_depth[0];
  EXPECT_EQ(queue.samples, static_cast<std::int64_t>(depths.size()));
  EXPECT_DOUBLE_EQ(queue.mean, 9.0 / static_cast<double>(depths.size()));
  // A rollup places its peak at its last folded scrape.
  EXPECT_DOUBLE_EQ(queue.peak, 9.0);
  EXPECT_EQ(queue.peak_at, static_cast<SimTime>(kFold) * kInterval);
  // The retained raw samples are all zero.
  EXPECT_DOUBLE_EQ(queue.p95, 0.0);
  EXPECT_TRUE(report.saturation.empty());
}

TEST(TimelineReportTest, JsonGolden) {
  std::ostringstream os;
  build_timeline(sample_store(), sample_options()).write_json(os);
  EXPECT_EQ(
      os.str(),
      R"({"interval_us":1.048576,"utilization":[)"
      R"({"series":"ghs_profile_tenant_busy_ps_total{tenant=\"3\"}",)"
      R"("samples":4,"mean":1.000000,"p95":1.000000,"peak":1.000000,)"
      R"("peak_at_ms":0.001049},)"
      R"({"series":"ghs_serve_device_busy_ps_total{device=\"gpu\",)"
      R"(node=\"0\"}",)"
      R"("samples":10,"mean":0.787500,"p95":1.193750,"peak":1.250000,)"
      R"("peak_at_ms":0.003146}],"queue_depth":[)"
      R"({"series":"ghs_serve_queue_depth{node=\"0\"}","samples":8,)"
      R"("mean":5.125000,"p95":8.000000,"peak":8.000000,)"
      R"("peak_at_ms":0.004194}],"saturation":[)"
      R"({"series":"ghs_serve_device_busy_ps_total{device=\"gpu\",)"
      R"(node=\"0\"}",)"
      R"("begin_ms":0.002097,"end_ms":0.003146,"points":2,"peak":1.250000},)"
      R"({"series":"ghs_serve_queue_depth{node=\"0\"}",)"
      R"("begin_ms":0.004194,"end_ms":0.006291,"points":3,"peak":8.000000},)"
      R"({"series":"ghs_serve_device_busy_ps_total{device=\"gpu\",)"
      R"(node=\"0\"}",)"
      R"("begin_ms":0.007340,"end_ms":0.009437,"points":3,"peak":1.125000}]})");
}

TEST(TimelineReportTest, TableGolden) {
  std::ostringstream os;
  build_timeline(sample_store(), sample_options()).write_table(os);
  EXPECT_EQ(os.str(),
            "timeline (1us scrapes): 2 utilization, 1 queue series, 3 "
            "saturation window(s)\n"
            "  util   tenant=3                     mean    1.000  p95    1.000"
            "  peak    1.000 @0.001ms\n"
            "  util   device=gpu,node=0            mean    0.787  p95    1.194"
            "  peak    1.250 @0.003ms\n"
            "  queue  node=0                       mean    5.125  p95    8.000"
            "  peak    8.000 @0.004ms\n"
            "  SATURATED device=gpu,node=0            [0.002ms, 0.003ms] 2 "
            "scrape(s) peak 1.250\n"
            "  SATURATED node=0                       [0.004ms, 0.006ms] 3 "
            "scrape(s) peak 8.000\n"
            "  SATURATED device=gpu,node=0            [0.007ms, 0.009ms] 3 "
            "scrape(s) peak 1.125\n");
}

}  // namespace
}  // namespace ghs::timeseries
