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
// Rates depend only on the flows' caps, paths and FlowId order, never on
// their bytes. So when the newest flow drains alone and its completion
// callback renews it (renew_flow: the same cap and path, fresh bytes, the
// id a new flow would get), the rates stay bit for bit what a re-solve
// would return, and the re-solve is skipped. From such a renewal on, each
// wake that the simulator would dispatch next anyway runs inside the
// current event (a *wave train*: the GPU model renews a kernel's wave flow
// for each identical next wave), with the same arithmetic and the same
// event count as the event path.
//
// This captures, with one mechanism, all contention effects the paper's
// experiments rest on: HBM saturation as team count grows, C2C-bound remote
// access in unified-memory mode, and CPU/GPU competition for LPDDR during
// co-execution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
};

class FluidNetwork {
 public:
  explicit FluidNetwork(Simulator& sim) : sim_(sim) {}

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// `name` only labels the error when the capacity is not positive.
  ResourceId add_resource(const std::string& name, Bandwidth capacity);

  /// Adjusts a resource's capacity from the current instant (fluid_test and
  /// the wave-train property test's perturbations are the only callers).
  void set_capacity(ResourceId id, Bandwidth capacity);

  Bandwidth capacity(ResourceId id) const;
  std::size_t resource_count() const { return resources_.size(); }

  /// Starts a flow now; rates of all flows are re-fair-shared.
  FlowId start_flow(FlowSpec spec);

  /// Only from inside a flow's completion callback: starts that flow again
  /// with `bytes` fresh bytes, keeping its rate cap, path and callback.
  /// Same result as start_flow with that spec, minus building the spec,
  /// and without a re-solve when the flow drained alone as the newest one
  /// in flight; it also lets later wakes of this event run inline (see the
  /// file comment).
  FlowId renew_flow(double bytes);

  /// True if the flow is still in flight.
  bool active(FlowId id) const;

  /// Instantaneous rate of an active flow (bytes/s).
  double current_rate(FlowId id) const;

  /// Remaining bytes of an active flow.
  double remaining_bytes(FlowId id) const;

  std::size_t active_flows() const { return flows_.size(); }

  /// What a run of flows moves: the next FlowId and wake generation.
  struct Mark {
    FlowId next_id = 0;
    std::uint64_t wake_generation = 0;
  };
  Mark mark() const { return {next_flow_id_, wake_generation_}; }

  /// With no flow in flight, stands in for `k` more runs like the one
  /// since `since`: the next FlowId and wake generation move on by k times
  /// what that run moved them. Throws OverflowError when one would pass
  /// its range.
  void fast_forward(const Mark& since, std::int64_t k);

 private:
  struct Resource {
    double capacity = 0.0;  // bytes/s
  };

  struct Flow {
    FlowId id = 0;
    FlowSpec spec;
    double remaining = 0.0;
    double rate = 0.0;
  };
  using FlowPtr = std::unique_ptr<Flow>;

  /// Advances all flows' progress from last_update_ to now.
  void sync_to_now();
  /// Recomputes max-min fair rates for all active flows.
  void recompute_rates();
  /// A wake: completes the flows that have drained, invoking callbacks
  /// (which may start or renew flows), re-solves the rates if anything
  /// changed, and schedules the next wake — or, in a wave train, runs it.
  void settle();
  /// One wake's completions and re-solve; true when a callback renewed
  /// its flow.
  bool complete_drained();
  /// Picoseconds to the next wake, or -1 with no flow in flight.
  SimTime next_wake_delay() const;
  /// The active flow `id`, or null.
  const Flow* find(FlowId id) const;
  void schedule_next_completion();
  void schedule_wake(SimTime dt);

  Simulator& sim_;
  std::vector<Resource> resources_;
  // Active flows in FlowId order, which every pass iterates so results are
  // deterministic. Ids only grow, so a new flow appends; each flow lives in
  // its own block, so a callback runs undisturbed while the table changes.
  std::vector<FlowPtr> flows_;
  // Scratch reused by recompute_rates, so the re-solve after every flow
  // start or completion allocates nothing once warm. It runs no
  // callbacks, so it cannot re-enter itself while a buffer is in use.
  std::vector<double> scratch_residual_;  // per resource
  std::vector<int> scratch_count_;        // per resource
  std::vector<Flow*> scratch_unfrozen_;
  std::vector<Flow*> scratch_still_unfrozen_;
  std::vector<double> scratch_limits_;
  // Drained flows of the wake being settled, held (not freed) so that a
  // callback can renew its own flow; settle() never re-enters itself.
  std::vector<FlowPtr> scratch_drained_;
  FlowPtr* completing_ = nullptr;  // the flow whose callback runs
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0;
  std::uint64_t wake_generation_ = 0;
  bool settling_ = false;
  bool renewed_ = false;
  // The flow set changed since the last re-solve.
  bool rates_stale_ = false;
  // Set from a wake where the newest flow drained alone and the rates were
  // up to date, until the flow set changes or is re-solved: renewing that
  // flow then restores the set the rates were solved for.
  bool renew_keeps_rates_ = false;
};

}  // namespace ghs::sim
