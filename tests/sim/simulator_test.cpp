#include "ghs/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_at(100, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(50, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(10, [&] {
    sim.schedule_after(5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 15);
}

TEST(SimulatorTest, CannotScheduleIntoThePast) {
  Simulator sim;
  sim.schedule_at(10, [&] {
    EXPECT_THROW(sim.schedule_at(5, [] {}), Error);
  });
  sim.run();
}

TEST(SimulatorTest, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(-1, [] {}), Error);
}

TEST(SimulatorTest, HoldsMoveOnlyCallables) {
  Simulator sim;
  auto payload = std::make_unique<std::string>("move-only");
  std::string seen;
  sim.schedule_at(10, [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, "move-only");
}

TEST(SimulatorTest, DestroysPendingEventsExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_at(1, [tracker] { ++*tracker; });
    sim.schedule_at(2, [tracker] { ++*tracker; });
    sim.schedule_at(3, [tracker] { ++*tracker; });
    // Run one event so a dispatched slot sits on the free list too.
    EXPECT_EQ(sim.drain_batch(), 1u);
    // Simulator destroyed with two events pending.
  }
  EXPECT_EQ(*tracker, 1);
  EXPECT_EQ(tracker.use_count(), 1);
}

TEST(SimulatorTest, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9);
}

TEST(SimulatorTest, DrainBatchDispatchesAllSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_at(20, [&] { order.push_back(3); });
  EXPECT_EQ(sim.drain_batch(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.drain_batch(), 1u);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.drain_batch(), 0u);
}

TEST(SimulatorTest, DrainBatchPicksUpSameTimeEventsScheduledByHandlers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] {
    order.push_back(1);
    // Scheduled at the current time from inside the batch: runs in the
    // same drain, after already-queued time-5 events.
    sim.schedule_at(5, [&] { order.push_back(3); });
  });
  sim.schedule_at(5, [&] { order.push_back(2); });
  EXPECT_EQ(sim.drain_batch(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, DispatchInlineOnlyForTheNextEvent) {
  Simulator sim;
  EXPECT_FALSE(sim.dispatch_inline(5));  // outside any handler
  std::vector<bool> inlined;
  sim.schedule_at(10, [&] {
    inlined.push_back(sim.dispatch_inline(50));  // nothing due before 200
    EXPECT_EQ(sim.now(), 50);
    sim.schedule_at(100, [] {});
    inlined.push_back(sim.dispatch_inline(100));  // the new event is due
    inlined.push_back(sim.dispatch_inline(99));
    EXPECT_EQ(sim.now(), 99);
  });
  sim.schedule_at(200, [] {});
  // One handler plus its two inline events, counted in the same drain.
  EXPECT_EQ(sim.drain_batch(), 3u);
  EXPECT_EQ(inlined, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(sim.events_processed(), 3u);
  // The inline events count as pushed, on top of the two pending ones.
  EXPECT_EQ(sim.peak_queue_size(), 3u);
  sim.run();
  EXPECT_EQ(sim.now(), 200);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorTest, DispatchInlineOnlyFromTheLastHandlerOfABatch) {
  Simulator sim;
  std::vector<bool> inlined;
  sim.schedule_at(10, [&] { inlined.push_back(sim.dispatch_inline(20)); });
  sim.schedule_at(10, [&] { inlined.push_back(sim.dispatch_inline(20)); });
  EXPECT_EQ(sim.drain_batch(), 3u);
  EXPECT_EQ(inlined, (std::vector<bool>{false, true}));
  EXPECT_EQ(sim.now(), 20);
}

TEST(SimulatorTest, PeakQueueSizeTracksHighWaterMark) {
  Simulator sim;
  EXPECT_EQ(sim.peak_queue_size(), 0u);
  sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  sim.schedule_at(3, [] {});
  EXPECT_EQ(sim.peak_queue_size(), 3u);
  sim.run();
  EXPECT_EQ(sim.peak_queue_size(), 3u);
}

}  // namespace
}  // namespace ghs::sim
