// Sim-time metrics scraper: samples a telemetry::Registry into a Tsdb on a
// fixed simulated-time interval, riding the event queue as a chain of
// self-rescheduling events.
//
// Determinism and non-interference are the contract:
//  - Scrape events obey the simulator's (time, seq) order like any other
//    event, so inserting them never reorders job events scheduled at the
//    same timestamp (the event-queue FIFO contract; pinned by the
//    dispatch-order equivalence test).
//  - The scraper only *reads* instruments; it registers nothing and
//    mutates nothing outside its own store, so reports, snapshots, and
//    traces from a scraped run match an unscraped run byte for byte.
//  - Counters and histograms are sampled as deltas against a per-scraper
//    cursor. start() baselines the cursors at the current totals, so a
//    registry shared across several runs (serve_loadgen's per-policy loop)
//    attributes only this run's activity to this run's series.
//
// The chain stops itself: when a tick finds the event queue empty, the
// workload has drained and the tick's sample is the trailing one. A
// handler that runs *after* the scrape in the same drain_batch can still
// schedule future work; finish() (called after sim.run() returns) takes a
// final sample to cover that tail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/timeseries/tsdb.hpp"

namespace ghs::timeseries {

/// Volatile instruments (wall-clock gauges) are never scraped, keeping
/// same-seed series files byte-identical. Each histogram also yields its
/// p50, p95 and p99 over every scrape interval that saw observations
/// (series keys suffixed ":p50", ":p95", ":p99").
struct ScraperOptions {
  /// Simulated time between scrapes.
  SimTime interval = kMillisecond;
};

class Scraper {
 public:
  /// The registry, store, and simulator must outlive the scraper.
  Scraper(sim::Simulator& sim, const telemetry::Registry& registry,
          Tsdb& store, ScraperOptions options = {});

  /// Baselines counter/histogram cursors at the current totals and
  /// schedules the first scrape at sim.now() + interval.
  void start();

  /// Takes one final sample at sim.now(), covering handlers that ran in
  /// the last batch after the trailing tick. Call after the sim drains.
  void finish();

  /// Samples every instrument right now (also used by the tick chain).
  void sample();

  std::int64_t scrapes() const { return scrapes_; }
  SimTime interval() const { return options_.interval; }

 private:
  void on_tick();
  void visit_registry(bool emit);

  struct HistCursor {
    std::vector<std::int64_t> cumulative;
    std::int64_t count = 0;
    double sum = 0.0;
  };

  sim::Simulator& sim_;
  const telemetry::Registry& registry_;
  Tsdb& store_;
  ScraperOptions options_;
  std::map<std::string, std::int64_t> counter_cursor_;
  std::map<std::string, HistCursor> hist_cursor_;
  std::int64_t scrapes_ = 0;
  bool started_ = false;
};

}  // namespace ghs::timeseries
