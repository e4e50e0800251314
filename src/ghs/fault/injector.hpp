// Deterministic fault injector: interprets a FaultPlan against the
// simulator clock. Every verdict is a pure function of (plan, seed, launch
// sequence); the only randomness is the per-launch Bernoulli draw for
// probabilistic kernel faults, which comes from a private xoshiro stream
// seeded once — the simulation that drives the launches is itself
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

class Injector {
 public:
  /// `sink` instruments injections (ghs_fault_* counters + flight events);
  /// null members disable, following the repository's opt-in contract.
  Injector(FaultPlan plan, std::uint64_t seed, telemetry::Sink sink = {});

  const FaultPlan& plan() const { return plan_; }

  /// Judges a launch on `target` starting at `begin` whose fault-free
  /// service time is `service`, and returns whether it fails. A launch on
  /// a down device fails after the plan's down_error_latency, which
  /// replaces `service`, and draws no kernel fault. Otherwise the
  /// bandwidth episodes active at `begin` (and, for a `unified` launch,
  /// the migration stalls) stretch `service` by 1/scale each, compounding,
  /// and the launch fails if a device-down window overlaps [begin, begin +
  /// service) or a transient kernel fault fires. Each active probabilistic
  /// kernel-fault spec consumes one RNG draw (p=0/p=1 specs never do), so
  /// the stream stays aligned across same-(plan, seed) replays. Every
  /// outage failure, kernel fault, slowed and stalled launch is counted
  /// once in the ghs_fault_* counters and recorded as a flight event.
  bool judge_launch(Target target, SimTime begin, bool unified,
                    SimTime& service);

  /// Every distinct window boundary in the plan, sorted ascending. The
  /// serve layer schedules a dispatch poke at each so a device coming back
  /// up (or a brown-out lifting) is noticed even when no arrival or
  /// completion lands nearby.
  std::vector<SimTime> transitions() const;

 private:
  bool kernel_fails(Target target, SimTime now);
  /// The PlanError of a launch whose stretched service would end past
  /// SimTime's range.
  [[noreturn]] void throw_stretch_error(Target target, SimTime begin,
                                        bool unified, SimTime service) const;
  void note_outage_fault(Target target, SimTime now);

  FaultPlan plan_;
  Rng rng_;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_kernel_faults_[2] = {nullptr, nullptr};
  telemetry::Counter* m_outage_faults_[2] = {nullptr, nullptr};
  telemetry::Counter* m_slowed_[2] = {nullptr, nullptr};
  telemetry::Counter* m_stalled_ = nullptr;
};

}  // namespace ghs::fault
