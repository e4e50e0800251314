#include "ghs/timeseries/scraper.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/timeseries/export.hpp"
#include "ghs/trace/chrome_exporter.hpp"

namespace ghs::timeseries {
namespace {

ScraperOptions every(SimTime interval) {
  ScraperOptions options;
  options.interval = interval;
  return options;
}

TEST(ScraperTest, SamplesCounterDeltasPerInterval) {
  sim::Simulator sim;
  telemetry::Registry registry;
  auto& counter = registry.counter("c");
  sim.schedule_at(5 * kMicrosecond, [&] { counter.inc(3); });
  sim.schedule_at(15 * kMicrosecond, [&] { counter.inc(4); });

  Tsdb store;
  Scraper scraper(sim, registry, store, every(10 * kMicrosecond));
  scraper.start();
  sim.run();
  scraper.finish();

  const Series* series = store.find("c");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind(), SeriesKind::kCounterDelta);
  // The 10us tick sees the first increment, the 20us tick the second;
  // finish() adds a trailing zero-delta sample at the same timestamp.
  EXPECT_DOUBLE_EQ(series->total_sum(), 7.0);
  ASSERT_GE(series->raw().size(), 2u);
  EXPECT_EQ(series->raw()[0].at, 10 * kMicrosecond);
  EXPECT_DOUBLE_EQ(series->raw()[0].value, 3.0);
}

TEST(ScraperTest, StartBaselinesCursorsForRegistryReuse) {
  sim::Simulator sim;
  telemetry::Registry registry;
  auto& counter = registry.counter("c");
  counter.inc(100);  // a previous run's activity

  sim.schedule_at(15 * kMicrosecond, [&] { counter.inc(5); });
  Tsdb store;
  Scraper scraper(sim, registry, store, every(10 * kMicrosecond));
  scraper.start();
  sim.run();
  scraper.finish();

  const Series* series = store.find("c");
  ASSERT_NE(series, nullptr);
  // Only this run's increments land in the series.
  EXPECT_DOUBLE_EQ(series->total_sum(), 5.0);
}

TEST(ScraperTest, GaugesSampledAsValues) {
  sim::Simulator sim;
  telemetry::Registry registry;
  auto& gauge = registry.gauge("g");
  gauge.set(2.0);
  sim.schedule_at(15 * kMicrosecond, [&] { gauge.set(7.0); });

  Tsdb store;
  Scraper scraper(sim, registry, store, every(10 * kMicrosecond));
  scraper.start();
  sim.run();
  scraper.finish();

  const Series* series = store.find("g");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind(), SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(series->raw()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(series->last_value(), 7.0);
}

TEST(ScraperTest, VolatileInstrumentsSkipped) {
  sim::Simulator sim;
  telemetry::Registry registry;
  registry.gauge("wall", {}, "", /*volatile_instrument=*/true).set(1.5);
  registry.gauge("g").set(1.0);
  sim.schedule_at(15 * kMicrosecond, [] {});

  Tsdb store;
  Scraper scraper(sim, registry, store, every(10 * kMicrosecond));
  scraper.start();
  sim.run();
  scraper.finish();

  EXPECT_EQ(store.find("wall"), nullptr);
  EXPECT_NE(store.find("g"), nullptr);
}

TEST(ScraperTest, HistogramsYieldCountSumAndWindowedQuantiles) {
  sim::Simulator sim;
  telemetry::Registry registry;
  auto& hist = registry.histogram("h", {1.0, 2.0, 4.0});
  sim.schedule_at(5 * kMicrosecond, [&] {
    hist.observe(0.5);
    hist.observe(1.5);
    hist.observe(3.0);
  });
  // A later empty interval, then one more observation.
  sim.schedule_at(35 * kMicrosecond, [&] { hist.observe(0.5); });

  Tsdb store;
  Scraper scraper(sim, registry, store, every(10 * kMicrosecond));
  scraper.start();
  sim.run();
  scraper.finish();

  const Series* count = store.find("h:count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->kind(), SeriesKind::kCounterDelta);
  EXPECT_DOUBLE_EQ(count->total_sum(), 4.0);
  const Series* sum = store.find("h:sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->total_sum(), 5.5);

  const Series* p50 = store.find("h:p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_EQ(p50->kind(), SeriesKind::kQuantile);
  // Quantile samples exist only for the two intervals with observations —
  // the empty scrapes in between contribute nothing.
  EXPECT_EQ(p50->points(), 2);
  EXPECT_NE(store.find("h:p95"), nullptr);
  EXPECT_NE(store.find("h:p99"), nullptr);
}

/// One small served workload, optionally scraped, returning the per-job
/// outcome the dispatch-order equivalence test compares.
struct ServedRun {
  std::vector<serve::JobRecord> records;
  std::string series_json;
  std::int64_t scrapes = 0;
};

ServedRun run_serve(bool scraped) {
  telemetry::Registry registry;
  telemetry::Sink sink;
  sink.metrics = &registry;
  sink.timeline = scraped;

  serve::ServiceModel model;
  serve::ServiceOptions options;
  options.telemetry = sink;
  serve::ReductionService service(std::make_unique<serve::FifoPolicy>(),
                                  model, options);
  ServedRun out;
  service.set_on_complete([&out](const serve::JobRecord& record) {
    out.records.push_back(record);
  });

  serve::OpenLoopOptions open;
  open.rate_hz = 200000.0;
  open.jobs = 120;
  open.seed = 42;

  Tsdb store;
  Scraper scraper(service.sim(), registry, store, every(25 * kMicrosecond));
  if (scraped) scraper.start();
  service.submit_all(serve::open_loop_poisson(open));
  service.run();
  if (scraped) scraper.finish();

  out.scrapes = scraper.scrapes();
  if (scraped) {
    std::ostringstream os;
    write_series_json(os, store,
                      SeriesMeta{scraper.interval(), scraper.scrapes()});
    out.series_json = os.str();
  }
  return out;
}

TEST(ScraperTest, ScrapeEventsDoNotPerturbDispatchOrder) {
  const ServedRun plain = run_serve(false);
  const ServedRun scraped = run_serve(true);
  EXPECT_GT(scraped.scrapes, 0);
  ASSERT_EQ(plain.records.size(), scraped.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    const auto& a = plain.records[i];
    const auto& b = scraped.records[i];
    EXPECT_EQ(a.job.id, b.job.id);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.launch_id, b.launch_id);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.completion, b.completion);
  }
}

TEST(ScraperTest, SameSeedScrapedRunsAreByteIdentical) {
  const ServedRun a = run_serve(true);
  const ServedRun b = run_serve(true);
  ASSERT_FALSE(a.series_json.empty());
  EXPECT_EQ(a.series_json, b.series_json);
  // The serve run registers device-busy series only under Sink::timeline.
  EXPECT_NE(a.series_json.find("ghs_serve_device_busy_ps_total"),
            std::string::npos);
}

TEST(ScraperTest, CounterTracksRideTheTraceOnlyWhenAdded) {
  trace::Tracer tracer;
  tracer.record(trace::Track::kGpu, "k", 0, kMicrosecond, "");

  std::ostringstream plain;
  trace::ChromeTraceExporter(tracer).write(plain);
  EXPECT_EQ(plain.str().find("Telemetry"), std::string::npos);
  EXPECT_EQ(plain.str().find("\"ph\":\"C\""), std::string::npos);

  std::ostringstream with_tracks;
  trace::ChromeTraceExporter exporter(tracer);
  trace::CounterTrack track;
  track.name = "queue depth";
  track.samples.push_back(trace::CounterSample{kMicrosecond, 3.0});
  exporter.add_counter_track(std::move(track));
  exporter.write(with_tracks);
  EXPECT_NE(with_tracks.str().find("Telemetry"), std::string::npos);
  EXPECT_NE(with_tracks.str().find("\"ph\":\"C\""), std::string::npos);

  // Track-free output from the same exporter type stays byte-identical to
  // a pre-counter export.
  std::ostringstream plain2;
  trace::ChromeTraceExporter(tracer).write(plain2);
  EXPECT_EQ(plain.str(), plain2.str());
}

}  // namespace
}  // namespace ghs::timeseries
