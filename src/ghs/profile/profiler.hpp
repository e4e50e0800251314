// Profiler: continuous sim-time sampling of "what is every device doing
// right now", riding the event queue as a chain of self-rescheduling
// events — the same off-by-default, dispatch-order-neutral pattern as
// ghs::timeseries::Scraper (ticks obey (time, seq) order, read-only over
// the Recorder's activity registry, stop themselves when the queue
// drains, finish() covers same-batch stragglers).
//
// Each tick walks the Recorder's registered (node, device) pairs and
// folds the current activity into a stack string
//   node0;gpu;tenant=42;op=C2;gpu.kernel
// (or `node0;gpu;idle`). Three outputs come from the same samples:
//  - write_collapsed(): Brendan Gregg folded-stack lines
//    ("stack count", sorted), directly flamegraph.pl-compatible;
//  - tracks(): per-device Perfetto slice tracks, consecutive same-stack
//    samples coalesced into one slice, for ChromeTraceExporter::
//    add_profile_track;
//  - windowed attribution series: per-tenant / per-op device-busy deltas
//    from the CostLedger written into a Tsdb
//    (ghs_profile_tenant_busy_ps_total{tenant="42"},
//    ghs_profile_op_busy_ps_total{op="C2"}), so metrics_diff.py
//    --series and the timeline report show per-tenant utilization over
//    time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ghs/profile/recorder.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/timeseries/tsdb.hpp"
#include "ghs/trace/chrome_exporter.hpp"

namespace ghs::profile {

struct ProfilerOptions {
  /// Simulated time between samples.
  SimTime interval = kMillisecond;
};

class Profiler {
 public:
  /// The recorder and simulator must outlive the profiler. `store` (may
  /// be null) receives the windowed attribution series.
  Profiler(sim::Simulator& sim, Recorder& recorder, ProfilerOptions options,
           timeseries::Tsdb* store = nullptr);

  /// Baselines the series cursors and schedules the first sample at
  /// sim.now() + interval.
  void start();

  /// Flushes the final series window and takes a trailing sample if sim
  /// time advanced past the last tick. Call after the sim drains.
  void finish();

  std::int64_t samples() const { return samples_; }
  SimTime interval() const { return options_.interval; }

  /// Folded stack -> sample count, sorted by stack.
  const std::map<std::string, std::int64_t>& folded() const {
    return folded_;
  }

  /// Folded-stack lines ("stack count\n", key order) for flamegraph.pl.
  void write_collapsed(std::ostream& os) const;

  /// Per-(node, device) slice tracks from the coalesced sample runs.
  std::vector<trace::ProfileTrack> tracks() const;

 private:
  /// Where one tenant's or op's busy series stands: the busy time it has
  /// written up to, and the series, resolved at its first flush.
  struct Cursor {
    SimTime seen = 0;
    timeseries::Series* series = nullptr;
  };

  void on_tick();
  void take_sample();
  void flush_series();
  void flush(const std::vector<CostLedger::Busy>& busy,
             std::vector<Cursor>& cursors, const char* prefix,
             bool op_labels);
  std::string stack_of(const std::pair<std::int16_t, Device>& key,
                       const DeviceActivity& activity, SimTime now) const;

  struct SliceRun {
    std::string stack;
    SimTime begin = 0;
    SimTime end = 0;
  };

  sim::Simulator& sim_;
  Recorder& recorder_;
  ProfilerOptions options_;
  timeseries::Tsdb* store_;
  std::map<std::string, std::int64_t> folded_;
  /// Open + closed coalesced runs per device, in registration order.
  std::map<std::pair<std::int16_t, Device>, std::vector<SliceRun>> runs_;
  /// Parallel to the ledger's tenant_busy() and op_busy() lists, which
  /// only grow; a flush extends them for the tallies that appeared since.
  std::vector<Cursor> tenant_cursors_;
  std::vector<Cursor> op_cursors_;
  std::int64_t samples_ = 0;
  SimTime last_sample_at_ = -1;
  bool started_ = false;
};

}  // namespace ghs::profile
