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
//  - Each instrument has one cursor holding the instrument and the
//    series it writes, so a scrape reads and appends through pointers and
//    looks nothing up by name. The cursors are rebuilt only when the
//    registry has grown since the last scrape; an instrument registered
//    between two ticks starts its series at the next one, from zero.
//
// The chain stops itself: when a tick finds the event queue empty, the
// workload has drained and the tick's sample is the trailing one. A
// handler that runs *after* the scrape in the same drain_batch can still
// schedule future work; finish() (called after sim.run() returns) takes a
// final sample to cover that tail.
#pragma once

#include <cstdint>
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
  /// One instrument: its value at the last scrape and the series it
  /// writes, each resolved when first appended to.
  struct Cursor {
    std::string key;  // name + labels, the series key (and its prefix)
    telemetry::Registry::View view;
    /// Counter total, or histogram count, at the last scrape.
    std::int64_t count = 0;
    double sum = 0.0;
    std::vector<std::int64_t> cumulative;
    /// Counter or gauge series, or a histogram's ":count".
    Series* series = nullptr;
    Series* sum_series = nullptr;
    Series* quantiles[3] = {nullptr, nullptr, nullptr};
  };

  void on_tick();
  /// Adds cursors for instruments registered since the last call; new
  /// cursors start from zero.
  void sync_cursors();
  void emit(Cursor& cursor, SimTime at);

  sim::Simulator& sim_;
  const telemetry::Registry& registry_;
  Tsdb& store_;
  ScraperOptions options_;
  /// In registry (key) order; instruments are never removed, so an old
  /// cursor list is a subsequence of a new one.
  std::vector<Cursor> cursors_;
  /// Registry size the cursors were built from.
  std::size_t synced_size_ = 0;
  /// Bucket deltas of one histogram scrape, reused.
  std::vector<std::int64_t> window_;
  std::int64_t scrapes_ = 0;
  bool started_ = false;
};

}  // namespace ghs::timeseries
