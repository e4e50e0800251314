// Circuit breaker: the classic closed -> open -> half-open state machine,
// in simulated time. The serve layer keeps one per device: consecutive
// launch failures trip the breaker (no more launches), a cool-down later a
// single probe is allowed through (half-open), and the probe's outcome
// either closes the breaker or re-opens it for another cool-down. All
// transitions are pure functions of the observed success/failure sequence
// and the clock, so chaos runs stay deterministic.
#pragma once

#include <cstdint>
#include <functional>

#include "ghs/util/units.hpp"

namespace ghs::fault {

/// Consecutive failures that trip the breaker open.
inline constexpr int kFailureThreshold = 3;
/// Cool-down before a half-open probe is allowed.
inline constexpr SimTime kOpenDuration = 500 * kMicrosecond;

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState state);

class CircuitBreaker {
 public:
  /// Whether a launch may proceed at `now`. An open breaker whose
  /// cool-down has elapsed transitions to half-open and admits the probe.
  bool allow(SimTime now);

  void record_success(SimTime now);
  void record_failure(SimTime now);

  BreakerState state() const { return state_; }
  /// Times the breaker tripped closed -> open (or half-open -> open).
  std::int64_t opens() const { return opens_; }
  /// Earliest time a half-open probe will be admitted (valid while open).
  SimTime probe_at() const { return opened_at_ + kOpenDuration; }

  /// Fires on every state change (telemetry, flight recorder, logging).
  using TransitionHook =
      std::function<void(BreakerState from, BreakerState to, SimTime at)>;
  void set_on_transition(TransitionHook hook);

 private:
  void transition(BreakerState to, SimTime at);

  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  SimTime opened_at_ = 0;
  std::int64_t opens_ = 0;
  TransitionHook on_transition_;
};

}  // namespace ghs::fault
