#include "ghs/sim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/log.hpp"

namespace ghs::sim {

namespace {

/// A flow counts as drained once fewer than this many bytes remain; real
/// flows in this repository are kilobytes and up, so the epsilon only
/// absorbs picosecond rounding.
constexpr double kDrainEpsilonBytes = 0.5;

}  // namespace

ResourceId FluidNetwork::add_resource(std::string name, Bandwidth capacity) {
  GHS_REQUIRE(capacity.bytes_per_second > 0.0,
              "resource '" << name << "' needs positive capacity");
  resources_.push_back(Resource{std::move(name), capacity.bytes_per_second,
                                ResourceStats{}});
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
  Flow flow;
  flow.remaining = spec.bytes;
  flow.spec = std::move(spec);
  flows_.emplace(id, std::move(flow));
  if (!settling_) {
    recompute_rates();
    schedule_next_completion();
  }
  return id;
}

bool FluidNetwork::active(FlowId id) const { return flows_.count(id) > 0; }

double FluidNetwork::current_rate(FlowId id) const {
  const auto it = flows_.find(id);
  GHS_REQUIRE(it != flows_.end(), "flow " << id << " is not active");
  return it->second.rate;
}

double FluidNetwork::remaining_bytes(FlowId id) const {
  const auto it = flows_.find(id);
  GHS_REQUIRE(it != flows_.end(), "flow " << id << " is not active");
  return it->second.remaining;
}

void FluidNetwork::sync_to_now() {
  const SimTime now = sim_.now();
  GHS_CHECK(now >= last_update_, "fluid clock moved backwards");
  if (now == last_update_) return;
  const double dt_s = to_seconds(now - last_update_);
  const double dt_ps = static_cast<double>(now - last_update_);
  std::vector<double>& resource_rate = scratch_rate_;
  resource_rate.assign(resources_.size(), 0.0);
  for (auto& [id, flow] : flows_) {
    if (flow.rate <= 0.0) continue;
    const double moved = std::min(flow.remaining, flow.rate * dt_s);
    flow.remaining -= moved;
    for (ResourceId r : flow.spec.resources) {
      resources_[r].stats.bytes_served += moved;
      resource_rate[r] += flow.rate;
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const double util =
        std::min(1.0, resource_rate[r] / resources_[r].capacity);
    resources_[r].stats.busy_time_ps += util * dt_ps;
  }
  last_update_ = now;
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
  for (auto& [id, flow] : flows_) {
    unfrozen.push_back(&flow);
    for (ResourceId r : flow.spec.resources) ++count[r];
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
}

void FluidNetwork::schedule_next_completion() {
  if (flows_.empty()) return;
  double min_dt_s = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (flow.rate <= 0.0) {
      GHS_CHECK(flow.remaining <= kDrainEpsilonBytes,
                "flow '" << flow.spec.label << "' stalled at rate 0 with "
                         << flow.remaining << " bytes left");
      min_dt_s = 0.0;
      continue;
    }
    min_dt_s = std::min(min_dt_s, flow.remaining / flow.rate);
  }
  // Round up so the earliest-finishing flow is guaranteed drained when the
  // wake event fires.
  SimTime dt = from_seconds(min_dt_s);
  if (dt <= 0) dt = 1;
  const std::uint64_t gen = ++wake_generation_;
  sim_.schedule_after(dt, [this, gen] {
    if (gen != wake_generation_) return;  // superseded by a newer schedule
    settle();
  });
}

void FluidNetwork::settle() {
  sync_to_now();
  settling_ = true;
  std::vector<std::function<void()>> callbacks;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining <= kDrainEpsilonBytes) {
      if (it->second.spec.on_complete) {
        callbacks.push_back(std::move(it->second.spec.on_complete));
      }
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  // Callbacks may start new flows; the settling_ flag defers their rate
  // recomputation to the single pass below.
  for (auto& cb : callbacks) cb();
  settling_ = false;
  recompute_rates();
  schedule_next_completion();
}

}  // namespace ghs::sim
