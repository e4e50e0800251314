#include "ghs/fault/breaker.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ghs::fault {
namespace {

/// Records kFailureThreshold consecutive failures at `at`, which trips a
/// closed breaker open.
void trip(CircuitBreaker& breaker, SimTime at) {
  for (int i = 0; i < kFailureThreshold; ++i) breaker.record_failure(at);
}

TEST(CircuitBreakerTest, StaysClosedBelowThreshold) {
  CircuitBreaker breaker;
  for (int i = 0; i + 1 < kFailureThreshold; ++i) breaker.record_failure(i);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(10));
  // A success resets the consecutive count.
  breaker.record_success(11);
  for (int i = 0; i + 1 < kFailureThreshold; ++i) {
    breaker.record_failure(12 + i);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.opens(), 0);
}

TEST(CircuitBreakerTest, OpensAtThresholdAndBlocksUntilCooldown) {
  CircuitBreaker breaker;
  trip(breaker, 30);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_EQ(breaker.probe_at(), 30 + kOpenDuration);
  EXPECT_FALSE(breaker.allow(31));
  EXPECT_FALSE(breaker.allow(30 + kOpenDuration - 1));
  // Cool-down elapsed: the next allow() admits the half-open probe.
  EXPECT_TRUE(breaker.allow(30 + kOpenDuration));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesProbeFailureReopens) {
  CircuitBreaker breaker;
  trip(breaker, 1);
  ASSERT_TRUE(breaker.allow(1 + kOpenDuration));
  breaker.record_failure(2 + kOpenDuration);  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2);
  ASSERT_TRUE(breaker.allow(2 + 2 * kOpenDuration));
  breaker.record_success(3 + 2 * kOpenDuration);  // probe succeeded
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow(4 + 2 * kOpenDuration));
  // Closing resets the count: tripping again takes a full threshold.
  for (int i = 0; i + 1 < kFailureThreshold; ++i) {
    breaker.record_failure(5 + 2 * kOpenDuration);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, TransitionHookSeesEveryStateChange) {
  CircuitBreaker breaker;
  std::vector<std::string> transitions;
  std::vector<SimTime> at;
  breaker.set_on_transition(
      [&](BreakerState from, BreakerState to, SimTime when) {
        transitions.push_back(std::string(breaker_state_name(from)) + ">" +
                              breaker_state_name(to));
        at.push_back(when);
      });
  trip(breaker, 5);
  ASSERT_TRUE(breaker.allow(5 + kOpenDuration));
  breaker.record_success(6 + kOpenDuration);
  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], "closed>open");
  EXPECT_EQ(transitions[1], "open>half-open");
  EXPECT_EQ(transitions[2], "half-open>closed");
  EXPECT_EQ(at[0], 5);
  EXPECT_EQ(at[1], 5 + kOpenDuration);
}

}  // namespace
}  // namespace ghs::fault
