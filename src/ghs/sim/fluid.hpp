// Fluid-flow bandwidth sharing ("processor sharing" network).
//
// The memory system is modelled as a set of capacity resources (HBM3,
// LPDDR5X, each NVLink-C2C direction). A *flow* is a byte stream that
// traverses one or more resources and may carry its own rate cap (e.g. the
// warp-level-parallelism limit of the CTAs it aggregates). At any instant
// every active flow progresses at its max-min fair rate: the water-filling
// algorithm repeatedly freezes the most-constrained flows until all flows
// have a rate. Rates are recomputed whenever a flow starts or completes,
// which is exact for piecewise-constant demand.
//
// This captures, with one mechanism, all contention effects the paper's
// experiments rest on: HBM saturation as team count grows, C2C-bound remote
// access in unified-memory mode, and CPU/GPU competition for LPDDR during
// co-execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::sim {

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;

struct FlowSpec {
  /// Total bytes the flow must move; must be > 0.
  double bytes = 0.0;
  /// Per-flow rate cap in bytes/s; 0 means uncapped (resource-limited only).
  double rate_cap = 0.0;
  /// Resources the flow traverses; each constrains the rate. Must not be
  /// empty and must not repeat a resource.
  std::vector<ResourceId> resources;
  /// Invoked (once) when the last byte is delivered.
  std::function<void()> on_complete;
  /// Debug label surfaced in logs and error messages.
  std::string label;
};

struct ResourceStats {
  /// Total bytes served by this resource so far.
  double bytes_served = 0.0;
  /// Integral of (utilised rate / capacity) dt, in picoseconds; dividing by
  /// elapsed time gives average utilisation.
  double busy_time_ps = 0.0;
};

class FluidNetwork {
 public:
  explicit FluidNetwork(Simulator& sim) : sim_(sim) {}

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  ResourceId add_resource(std::string name, Bandwidth capacity);

  /// Adjusts a resource's capacity (used by tests and ablations); takes
  /// effect from the current instant.
  void set_capacity(ResourceId id, Bandwidth capacity);

  Bandwidth capacity(ResourceId id) const;
  const ResourceStats& resource_stats(ResourceId id) const;

  /// Starts a flow now; rates of all flows are re-fair-shared.
  FlowId start_flow(FlowSpec spec);

  /// True if the flow is still in flight.
  bool active(FlowId id) const;

  /// Instantaneous rate of an active flow (bytes/s).
  double current_rate(FlowId id) const;

  /// Remaining bytes of an active flow.
  double remaining_bytes(FlowId id) const;

  std::size_t active_flows() const { return flows_.size(); }

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;  // bytes/s
    ResourceStats stats;
  };

  struct Flow {
    FlowSpec spec;
    double remaining = 0.0;
    double rate = 0.0;
  };

  /// Advances all flows' progress from last_update_ to now.
  void sync_to_now();
  /// Recomputes max-min fair rates for all active flows.
  void recompute_rates();
  /// Completes flows that have drained, invoking callbacks (which may start
  /// new flows); then recomputes and schedules the next completion.
  void settle();
  void schedule_next_completion();

  Simulator& sim_;
  std::vector<Resource> resources_;
  // Ordered map so rate computation iterates flows deterministically.
  std::map<FlowId, Flow> flows_;
  // Scratch reused by sync_to_now and recompute_rates, so the re-solve
  // after every flow start or completion allocates nothing once warm.
  // Neither function runs callbacks, so neither can re-enter itself
  // while a buffer is in use.
  std::vector<double> scratch_rate_;      // per resource
  std::vector<double> scratch_residual_;  // per resource
  std::vector<int> scratch_count_;        // per resource
  std::vector<Flow*> scratch_unfrozen_;
  std::vector<Flow*> scratch_still_unfrozen_;
  std::vector<double> scratch_limits_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0;
  std::uint64_t wake_generation_ = 0;
  bool settling_ = false;
};

}  // namespace ghs::sim
