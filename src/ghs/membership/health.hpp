// Phi-accrual-style failure detector riding the sim event queue.
//
// Every `interval` the monitor sweeps the fleet: each node that answers
// its probe records a heartbeat (inter-arrival times kept in a small
// window, as in Hayashibara et al.'s phi-accrual detector); each node
// that does not is scored
//
//   phi = (now - last_heartbeat) / mean_interval * log10(e)
//
// — the phi-accrual suspicion level under an exponential inter-arrival
// model, which grows without bound while heartbeats are missing. Crossing
// kSuspectPhi marks the node suspect (still routable, first to shed);
// crossing kDeadPhi declares it dead, which is what triggers ring removal
// and journal replay in the cluster. A dead node whose heartbeats resume
// is held for kRejoinDelay of continuous health (the warm-up window)
// before it transitions back to alive and rejoins the ring.
//
// Determinism: the sweep is a single self-rescheduling sim event (the
// ghs::timeseries scraper idiom), probes are a pure function supplied by
// the cluster, and all arithmetic is on integer sim times plus one
// deterministic double per score — same seed, same transitions, same
// bytes. The chain stops once the simulator is otherwise idle and no
// node's probe disagrees with its recorded state, so a run never hangs
// on its own detector.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ghs/membership/table.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::membership {

/// Inter-arrival samples kept per node for the mean estimate.
inline constexpr int kHeartbeatWindow = 16;
/// Suspicion level that marks a node suspect. phi 1.0 ~ 2.3 missed mean
/// intervals.
inline constexpr double kSuspectPhi = 1.0;
/// Suspicion level that declares a node dead. phi 3.0 ~ 6.9 missed mean
/// intervals.
inline constexpr double kDeadPhi = 3.0;
/// Continuous healthy heartbeats a dead node must show before it rejoins
/// the ring (the restart warm-up window).
inline constexpr SimTime kRejoinDelay = 200 * kMicrosecond;

struct HealthOptions {
  /// Master switch; a disabled monitor is never constructed, keeping
  /// detector-off runs byte-identical.
  bool enabled = false;
  /// Heartbeat (and evaluation) period.
  SimTime interval = 100 * kMicrosecond;
};

class HealthMonitor {
 public:
  /// `up(node)` is the probe: does the node's process answer right now?
  HealthMonitor(sim::Simulator& sim, Table& table, HealthOptions options,
                std::function<bool(int)> up);

  /// Schedules the first sweep one interval from now.
  void start();

  /// Last computed suspicion level for `node` (0 while heartbeats flow).
  double phi(int node) const {
    return health_[static_cast<std::size_t>(node)].phi;
  }

  std::int64_t sweeps() const { return sweeps_; }

 private:
  struct NodeHealth {
    SimTime last_heartbeat = -1;
    std::vector<SimTime> intervals;  // ring buffer of inter-arrival times
    std::size_t next = 0;
    double mean = 0.0;
    SimTime recovering_since = -1;
    double phi = 0.0;
  };

  void on_sweep();
  void heartbeat(int node, NodeHealth& h, SimTime now);
  void score(int node, NodeHealth& h, SimTime now);
  /// True while some node's probe disagrees with its table state, i.e.
  /// a detection or rejoin is still in progress — keeps the sweep chain
  /// alive after the workload drains.
  bool pending() const;

  sim::Simulator& sim_;
  Table& table_;
  HealthOptions options_;
  std::function<bool(int)> up_;
  std::vector<NodeHealth> health_;
  std::int64_t sweeps_ = 0;
};

}  // namespace ghs::membership
