#include "ghs/sim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::sim {

namespace {

/// A flow counts as drained once fewer than this many bytes remain; real
/// flows in this repository are kilobytes and up, so the epsilon only
/// absorbs picosecond rounding.
constexpr double kDrainEpsilonBytes = 0.5;

}  // namespace

ResourceId FluidNetwork::add_resource(const std::string& name,
                                      Bandwidth capacity) {
  GHS_REQUIRE(capacity.bytes_per_second > 0.0,
              "resource '" << name << "' needs positive capacity");
  resources_.push_back(Resource{capacity.bytes_per_second, ResourceStats{}});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidNetwork::set_capacity(ResourceId id, Bandwidth capacity) {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  GHS_REQUIRE(capacity.bytes_per_second > 0.0, "capacity must be positive");
  sync_to_now();
  resources_[id].capacity = capacity.bytes_per_second;
  recompute_rates();
  schedule_next_completion();
}

Bandwidth FluidNetwork::capacity(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return Bandwidth{resources_[id].capacity};
}

const ResourceStats& FluidNetwork::resource_stats(ResourceId id) const {
  GHS_REQUIRE(id < resources_.size(), "resource id " << id);
  return resources_[id].stats;
}

FlowId FluidNetwork::start_flow(FlowSpec spec) {
  GHS_REQUIRE(spec.bytes > 0.0, "flow '" << spec.label << "' has no bytes");
  GHS_REQUIRE(!spec.resources.empty(),
              "flow '" << spec.label << "' traverses no resources");
  for (ResourceId r : spec.resources) {
    GHS_REQUIRE(r < resources_.size(),
                "flow '" << spec.label << "' uses bad resource id " << r);
  }
  sync_to_now();
  const FlowId id = next_flow_id_++;
  auto flow = std::make_unique<Flow>();
  flow->id = id;
  flow->remaining = spec.bytes;
  flow->spec = std::move(spec);
  flows_.push_back(std::move(flow));
  rates_stale_ = true;
  renew_keeps_rates_ = false;
  if (!settling_) {
    recompute_rates();
    schedule_next_completion();
  }
  return id;
}

FlowId FluidNetwork::renew_flow(double bytes) {
  GHS_REQUIRE(completing_ != nullptr && *completing_ != nullptr,
              "renew_flow outside a flow's completion callback");
  Flow& flow = **completing_;
  GHS_REQUIRE(bytes > 0.0,
              "flow '" << flow.spec.label << "' renewed with no bytes");
  flow.id = next_flow_id_++;
  flow.spec.bytes = bytes;
  flow.remaining = bytes;
  flows_.push_back(std::move(*completing_));
  rates_stale_ = !renew_keeps_rates_;
  renew_keeps_rates_ = false;
  renewed_ = true;
  return flow.id;
}

const FluidNetwork::Flow* FluidNetwork::find(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const FlowPtr& flow, FlowId key) { return flow->id < key; });
  return it != flows_.end() && (*it)->id == id ? it->get() : nullptr;
}

bool FluidNetwork::active(FlowId id) const { return find(id) != nullptr; }

double FluidNetwork::current_rate(FlowId id) const {
  const Flow* flow = find(id);
  GHS_REQUIRE(flow != nullptr, "flow " << id << " is not active");
  return flow->rate;
}

double FluidNetwork::remaining_bytes(FlowId id) const {
  const Flow* flow = find(id);
  GHS_REQUIRE(flow != nullptr, "flow " << id << " is not active");
  return flow->remaining;
}

void FluidNetwork::sync_to_now() {
  const SimTime now = sim_.now();
  GHS_CHECK(now >= last_update_, "fluid clock moved backwards");
  if (now == last_update_) return;
  const double dt_s = to_seconds(now - last_update_);
  const double dt_ps = static_cast<double>(now - last_update_);
  if (!utilisation_valid_) cache_utilisation();
  for (const FlowPtr& f : flows_) {
    Flow& flow = *f;
    if (flow.rate <= 0.0) continue;
    const double moved = std::min(flow.remaining, flow.rate * dt_s);
    flow.remaining -= moved;
    for (ResourceId r : flow.spec.resources) {
      resources_[r].stats.bytes_served += moved;
    }
  }
  for (const BusyResource& busy : busy_resources_) {
    resources_[busy.id].stats.busy_time_ps += busy.utilisation * dt_ps;
  }
  last_update_ = now;
}

void FluidNetwork::cache_utilisation() {
  std::vector<double>& resource_rate = scratch_rate_;
  resource_rate.assign(resources_.size(), 0.0);
  for (const FlowPtr& flow : flows_) {
    if (flow->rate <= 0.0) continue;
    for (ResourceId r : flow->spec.resources) resource_rate[r] += flow->rate;
  }
  busy_resources_.clear();
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    // An idle resource would add 0 * dt to its busy time, which (never
    // negative) leaves it exactly as it is.
    if (resource_rate[r] == 0.0) continue;
    busy_resources_.push_back(
        {static_cast<ResourceId>(r),
         std::min(1.0, resource_rate[r] / resources_[r].capacity)});
  }
  utilisation_valid_ = true;
}

void FluidNetwork::recompute_rates() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& residual = scratch_residual_;
  std::vector<int>& count = scratch_count_;
  residual.resize(resources_.size());
  count.assign(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    residual[r] = resources_[r].capacity;
  }
  std::vector<Flow*>& unfrozen = scratch_unfrozen_;
  std::vector<Flow*>& still_unfrozen = scratch_still_unfrozen_;
  std::vector<double>& limits = scratch_limits_;
  unfrozen.clear();
  for (const FlowPtr& flow : flows_) {
    unfrozen.push_back(flow.get());
    for (ResourceId r : flow->spec.resources) ++count[r];
  }
  // Progressive filling: each round freezes every flow whose limiting
  // constraint equals the global minimum, guaranteeing termination.
  while (!unfrozen.empty()) {
    double round_min = kInf;
    limits.resize(unfrozen.size());
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      const Flow& flow = *unfrozen[i];
      double limit = flow.spec.rate_cap > 0.0 ? flow.spec.rate_cap : kInf;
      for (ResourceId r : flow.spec.resources) {
        GHS_CHECK(count[r] > 0, "resource count underflow");
        limit = std::min(limit, std::max(0.0, residual[r]) /
                                    static_cast<double>(count[r]));
      }
      limits[i] = limit;
      round_min = std::min(round_min, limit);
    }
    GHS_CHECK(std::isfinite(round_min),
              "all flows uncapped over zero resources");
    const double freeze_below = round_min * (1.0 + 1e-12) + 1e-9;
    still_unfrozen.clear();
    for (std::size_t i = 0; i < unfrozen.size(); ++i) {
      Flow& flow = *unfrozen[i];
      if (limits[i] <= freeze_below) {
        flow.rate = limits[i];
        for (ResourceId r : flow.spec.resources) {
          residual[r] -= flow.rate;
          --count[r];
        }
      } else {
        still_unfrozen.push_back(&flow);
      }
    }
    GHS_CHECK(still_unfrozen.size() < unfrozen.size(),
              "water-filling made no progress");
    unfrozen.swap(still_unfrozen);
  }
  rates_stale_ = false;
  renew_keeps_rates_ = false;
  utilisation_valid_ = false;
}

SimTime FluidNetwork::next_wake_delay() const {
  if (flows_.empty()) return -1;
  double min_dt_s = std::numeric_limits<double>::infinity();
  for (const FlowPtr& flow : flows_) {
    if (flow->rate <= 0.0) {
      GHS_CHECK(flow->remaining <= kDrainEpsilonBytes,
                "flow '" << flow->spec.label << "' stalled at rate 0 with "
                         << flow->remaining << " bytes left");
      min_dt_s = 0.0;
      continue;
    }
    min_dt_s = std::min(min_dt_s, flow->remaining / flow->rate);
  }
  // Rounds to the nearest picosecond, not up. When the earliest flow's
  // exact end lies less than half a picosecond past the wake, up to half
  // a picosecond of its bytes are still left then; if that is more than
  // kDrainEpsilonBytes the flow stays in flight, and the next wake comes
  // 1 ps later (a delay of 0 becomes 1).
  const SimTime dt = from_seconds(min_dt_s);
  return dt > 0 ? dt : 1;
}

void FluidNetwork::schedule_next_completion() {
  const SimTime dt = next_wake_delay();
  if (dt >= 0) schedule_wake(dt);
}

void FluidNetwork::schedule_wake(SimTime dt) {
  const std::uint64_t gen = ++wake_generation_;
  sim_.schedule_after(dt, [this, gen] {
    if (gen != wake_generation_) return;  // superseded by a newer schedule
    settle();
  });
}

void FluidNetwork::settle() {
  // Once a callback has renewed its flow, each following wake that the
  // simulator would dispatch next anyway runs here, inside this event.
  bool train = false;
  for (;;) {
    sync_to_now();
    train = complete_drained() || train;
    const SimTime dt = next_wake_delay();
    if (dt < 0) return;
    if (!train || !sim_.dispatch_inline(sim_.now() + dt)) {
      schedule_wake(dt);
      return;
    }
    ++wake_generation_;  // as schedule_wake: any wake still pending is stale
  }
}

bool FluidNetwork::complete_drained() {
  std::vector<FlowPtr>& drained = scratch_drained_;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i]->remaining <= kDrainEpsilonBytes) {
      drained.push_back(std::move(flows_[i]));
    } else if (kept++ != i) {
      flows_[kept - 1] = std::move(flows_[i]);
    }
  }
  flows_.resize(kept);
  // When the newest flow drains alone, renewing it restores the flow set
  // the rates were solved for; every other change needs a re-solve.
  const bool lone_newest =
      drained.size() == 1 &&
      (flows_.empty() || flows_.back()->id < drained.front()->id);
  renew_keeps_rates_ = lone_newest && !rates_stale_;
  if (!drained.empty()) rates_stale_ = true;
  // Callbacks may start new flows; the settling_ flag defers their rate
  // recomputation to the single pass below.
  renewed_ = false;
  settling_ = true;
  for (FlowPtr& flow : drained) {
    completing_ = &flow;
    if (flow->spec.on_complete) flow->spec.on_complete();
  }
  completing_ = nullptr;
  settling_ = false;
  renew_keeps_rates_ = false;
  drained.clear();
  if (rates_stale_) recompute_rates();
  return renewed_;
}

}  // namespace ghs::sim
