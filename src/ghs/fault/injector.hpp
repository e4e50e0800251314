// Deterministic fault injector: interprets a FaultPlan against the
// simulator clock. All queries are pure functions of (plan, seed, query
// sequence); the only randomness is the per-launch Bernoulli draw for
// probabilistic kernel faults, which comes from a private xoshiro stream
// seeded once — the simulation that drives the queries is itself
// deterministic, so two runs from the same (plan, seed) replay the exact
// same injections, byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "ghs/fault/plan.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::fault {

struct InjectorStats {
  /// Transient kernel failures injected (probability draws or windows).
  std::int64_t kernel_faults = 0;
  /// Launches failed because a device-down window covered them.
  std::int64_t outage_faults = 0;
  /// Launches served under a bandwidth brown-out (scale > 1 applied).
  std::int64_t slowed_launches = 0;
  /// Unified launches served under a migration-stall episode.
  std::int64_t stalled_launches = 0;
};

class Injector {
 public:
  /// `sink` instruments injections (ghs_fault_* counters + flight events);
  /// null members disable, following the repository's opt-in contract.
  Injector(FaultPlan plan, std::uint64_t seed, telemetry::Sink sink = {});

  const FaultPlan& plan() const { return plan_; }
  const InjectorStats& stats() const { return stats_; }

  /// Whether a launch starting on `target` at `now` suffers a transient
  /// kernel fault; a true result is recorded as an injection. Consumes one
  /// RNG draw per active probabilistic spec (never for p=0/p=1 specs), so
  /// the stream stays aligned across same-(plan, seed) replays of the same
  /// simulation.
  bool kernel_fails(Target target, SimTime now);

  /// Whether `target` is inside a device-down window at `now`.
  bool device_down(Target target, SimTime now) const;

  /// Whether any device-down window overlaps the launch span [begin, end).
  bool outage_overlaps(Target target, SimTime begin, SimTime end) const;

  /// Service-time multiplier (>= 1.0) from bandwidth episodes active at
  /// `now`: an episode at scale s stretches service by 1/s; overlapping
  /// episodes compound.
  double service_scale(Target target, SimTime now) const;

  /// Service-time multiplier (>= 1.0) for unified-memory launches from
  /// migration-stall episodes active at `now`.
  double migration_stall_scale(SimTime now) const;

  /// Accounting entry points for the layer that applies the verdicts (the
  /// serve::ReductionService launch path), so outage failures and
  /// slow-down episodes show up in stats and telemetry exactly once per
  /// affected launch.
  void note_outage_fault(Target target, SimTime now);
  void note_slowed_launch(Target target, SimTime now, double scale);
  void note_stalled_launch(SimTime now, double scale);

  /// Every distinct window boundary in the plan, sorted ascending. The
  /// serve layer schedules a dispatch poke at each so a device coming back
  /// up (or a brown-out lifting) is noticed even when no arrival or
  /// completion lands nearby.
  std::vector<SimTime> transitions() const;

 private:
  FaultPlan plan_;
  Rng rng_;
  InjectorStats stats_;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_kernel_faults_[2] = {nullptr, nullptr};
  telemetry::Counter* m_outage_faults_[2] = {nullptr, nullptr};
  telemetry::Counter* m_slowed_[2] = {nullptr, nullptr};
  telemetry::Counter* m_stalled_ = nullptr;
};

}  // namespace ghs::fault
