#include "ghs/fault/breaker.hpp"

#include "ghs/util/error.hpp"

namespace ghs::fault {

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  GHS_UNREACHABLE("breaker state " << static_cast<int>(state));
}

void CircuitBreaker::set_on_transition(TransitionHook hook) {
  on_transition_ = std::move(hook);
}

void CircuitBreaker::transition(BreakerState to, SimTime at) {
  const BreakerState from = state_;
  if (from == to) return;
  state_ = to;
  if (to == BreakerState::kOpen) {
    ++opens_;
    opened_at_ = at;
  }
  if (on_transition_) on_transition_(from, to, at);
}

bool CircuitBreaker::allow(SimTime now) {
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen:
      if (now >= probe_at()) {
        transition(BreakerState::kHalfOpen, now);
        return true;
      }
      return false;
  }
  GHS_UNREACHABLE("breaker state " << static_cast<int>(state_));
}

void CircuitBreaker::record_success(SimTime now) {
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    transition(BreakerState::kClosed, now);
  }
}

void CircuitBreaker::record_failure(SimTime now) {
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: straight back to open for another cool-down.
    consecutive_failures_ = 0;
    transition(BreakerState::kOpen, now);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= kFailureThreshold) {
    consecutive_failures_ = 0;
    transition(BreakerState::kOpen, now);
  }
}

}  // namespace ghs::fault
