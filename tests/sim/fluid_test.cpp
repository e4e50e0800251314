#include "ghs/sim/fluid.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::sim {
namespace {

constexpr double kGB = 1e9;

class FluidTest : public ::testing::Test {
 protected:
  Simulator sim;
  FluidNetwork net{sim};
};

TEST_F(FluidTest, SingleFlowRunsAtCapacity) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  SimTime done = -1;
  FlowSpec spec;
  spec.bytes = 100 * kGB;  // 1 second at 100 GB/s
  spec.resources = {r};
  spec.on_complete = [&] { done = sim.now(); };
  const auto id = net.start_flow(std::move(spec));
  EXPECT_DOUBLE_EQ(net.current_rate(id), 100.0 * kGB);
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), 1e12, 1e6);
  EXPECT_FALSE(net.active(id));
}

TEST_F(FluidTest, RateCapBinds) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  FlowSpec spec;
  spec.bytes = 10 * kGB;
  spec.rate_cap = 10.0 * kGB;
  spec.resources = {r};
  const auto id = net.start_flow(std::move(spec));
  EXPECT_DOUBLE_EQ(net.current_rate(id), 10.0 * kGB);
}

TEST_F(FluidTest, TwoFlowsShareFairly) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  FlowSpec a;
  a.bytes = kGB;
  a.resources = {r};
  FlowSpec b = a;
  const auto ia = net.start_flow(std::move(a));
  const auto ib = net.start_flow(std::move(b));
  EXPECT_DOUBLE_EQ(net.current_rate(ia), 50.0 * kGB);
  EXPECT_DOUBLE_EQ(net.current_rate(ib), 50.0 * kGB);
}

TEST_F(FluidTest, CappedFlowLeavesHeadroomToOthers) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  FlowSpec small;
  small.bytes = kGB;
  small.rate_cap = 10.0 * kGB;
  small.resources = {r};
  FlowSpec big;
  big.bytes = kGB;
  big.resources = {r};
  const auto is = net.start_flow(std::move(small));
  const auto ib = net.start_flow(std::move(big));
  // Max-min: capped flow gets its 10, the other gets the residual 90.
  EXPECT_DOUBLE_EQ(net.current_rate(is), 10.0 * kGB);
  EXPECT_DOUBLE_EQ(net.current_rate(ib), 90.0 * kGB);
}

TEST_F(FluidTest, MultiResourceFlowLimitedByTightest) {
  const auto wide = net.add_resource("wide", Bandwidth::from_gbps(1000.0));
  const auto narrow = net.add_resource("narrow", Bandwidth::from_gbps(50.0));
  FlowSpec spec;
  spec.bytes = kGB;
  spec.resources = {wide, narrow};
  const auto id = net.start_flow(std::move(spec));
  EXPECT_DOUBLE_EQ(net.current_rate(id), 50.0 * kGB);
}

TEST_F(FluidTest, CrossTrafficOnSharedLink) {
  // Mirrors GPU-remote + CPU-local both draining LPDDR in the co-run cold
  // phase: one flow crosses lpddr+c2c, another lpddr only.
  const auto lpddr = net.add_resource("lpddr", Bandwidth::from_gbps(500.0));
  const auto c2c = net.add_resource("c2c", Bandwidth::from_gbps(450.0));
  FlowSpec gpu;
  gpu.bytes = kGB;
  gpu.resources = {lpddr, c2c};
  FlowSpec cpu;
  cpu.bytes = kGB;
  cpu.resources = {lpddr};
  const auto ig = net.start_flow(std::move(gpu));
  const auto ic = net.start_flow(std::move(cpu));
  // LPDDR is the binding bottleneck; fair share 250/250.
  EXPECT_DOUBLE_EQ(net.current_rate(ig), 250.0 * kGB);
  EXPECT_DOUBLE_EQ(net.current_rate(ic), 250.0 * kGB);
}

TEST_F(FluidTest, RatesReadjustOnCompletion) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  FlowSpec shorter;
  shorter.bytes = 50 * kGB;  // drains after 1 s of fair sharing
  shorter.resources = {r};
  FlowSpec longer;
  longer.bytes = 100 * kGB;
  longer.resources = {r};
  SimTime long_done = -1;
  longer.on_complete = [&] { long_done = sim.now(); };
  net.start_flow(std::move(shorter));
  const auto il = net.start_flow(std::move(longer));
  sim.run();
  // Longer flow: 50 GB at 50 GB/s (1 s) + 50 GB at 100 GB/s (0.5 s).
  EXPECT_NEAR(static_cast<double>(long_done), 1.5e12, 1e7);
  EXPECT_FALSE(net.active(il));
}

TEST_F(FluidTest, CompletionCallbackCanStartNewFlow) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(1.0));
  std::vector<SimTime> completions;
  FlowSpec second;
  second.bytes = 1e9;
  second.resources = {r};
  second.on_complete = [&] { completions.push_back(sim.now()); };
  FlowSpec first;
  first.bytes = 1e9;
  first.resources = {r};
  first.on_complete = [&, second = std::move(second)]() mutable {
    completions.push_back(sim.now());
    net.start_flow(std::move(second));
  };
  net.start_flow(std::move(first));
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(static_cast<double>(completions[0]), 1e12, 1e6);
  EXPECT_NEAR(static_cast<double>(completions[1]), 2e12, 1e6);
}

// from_seconds rounds a wake to the nearest picosecond. A flow whose exact
// end lies 0.4 ps past 1000 ps at 4 B/ps wakes at 1000 ps with 1.6 bytes
// left, more than the half-byte drain epsilon, so it stays in flight and a
// second wake 1 ps later finishes it.
TEST_F(FluidTest, WakeRoundedDownLeavesTheFlowForASecondWake) {
  const auto r = net.add_resource("r", Bandwidth{4e12});
  SimTime done = -1;
  FlowSpec spec;
  spec.bytes = 4001.6;
  spec.resources = {r};
  spec.on_complete = [&] { done = sim.now(); };
  const FlowId id = net.start_flow(std::move(spec));
  EXPECT_EQ(sim.drain_batch(), 1u);
  EXPECT_EQ(sim.now(), 1000);
  ASSERT_TRUE(net.active(id));
  EXPECT_NEAR(net.remaining_bytes(id), 1.6, 1e-9);
  sim.run();
  EXPECT_EQ(done, 1001);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Rounded up instead (0.6 ps past 1000 ps), one wake drains it.
TEST_F(FluidTest, WakeRoundedUpDrainsTheFlowAtOnce) {
  const auto r = net.add_resource("r", Bandwidth{4e12});
  SimTime done = -1;
  FlowSpec spec;
  spec.bytes = 4002.4;
  spec.resources = {r};
  spec.on_complete = [&] { done = sim.now(); };
  net.start_flow(std::move(spec));
  sim.run();
  EXPECT_EQ(done, 1001);
  EXPECT_EQ(sim.events_processed(), 1u);
}

struct WaveRun {
  std::vector<SimTime> completions;
  std::vector<FlowId> ids;
  std::size_t events = 0;
};

/// Six successive "waves" of one flow on a shared resource, while a
/// co-flow starts mid-way, drains and lets the waves speed up again. Each
/// wave's successor is renewed in place or started afresh.
WaveRun run_waves(bool renew) {
  Simulator sim;
  FluidNetwork net(sim);
  const auto shared = net.add_resource("shared", Bandwidth::from_gbps(100.0));
  const auto other = net.add_resource("other", Bandwidth::from_gbps(30.0));
  WaveRun out;
  int left = 6;
  std::function<void()> start_wave;
  const auto wave_done = [&] {
    out.completions.push_back(sim.now());
    if (--left == 0) return;
    const double bytes = 1e6 + 0.3 * left;
    if (renew) {
      out.ids.push_back(net.renew_flow(bytes));
    } else {
      FlowSpec spec;
      spec.bytes = bytes;
      spec.rate_cap = 60e9;
      spec.resources = {shared};
      spec.on_complete = [&] { start_wave(); };
      out.ids.push_back(net.start_flow(std::move(spec)));
    }
  };
  start_wave = wave_done;
  FlowSpec first;
  first.bytes = 1e6;
  first.rate_cap = 60e9;
  first.resources = {shared};
  first.on_complete = [&] { start_wave(); };
  out.ids.push_back(net.start_flow(std::move(first)));
  sim.schedule_at(25'000'000, [&] {
    FlowSpec co;
    co.bytes = 1.3e6;
    co.resources = {shared, other};
    co.on_complete = [&] { out.completions.push_back(-sim.now()); };
    out.ids.push_back(net.start_flow(std::move(co)));
  });
  sim.run();
  out.events = sim.events_processed();
  return out;
}

TEST(FluidRenewTest, RenewedFlowRunsExactlyAsAFreshOne) {
  const WaveRun renewed = run_waves(true);
  const WaveRun fresh = run_waves(false);
  ASSERT_EQ(renewed.completions.size(), 7u);
  EXPECT_EQ(renewed.completions, fresh.completions);
  EXPECT_EQ(renewed.ids, fresh.ids);
  EXPECT_EQ(renewed.events, fresh.events);
}

TEST_F(FluidTest, RenewOnlyFromACompletionCallback) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(1.0));
  FlowSpec spec;
  spec.bytes = 1e3;
  spec.resources = {r};
  net.start_flow(std::move(spec));
  EXPECT_THROW(net.renew_flow(1e3), Error);
}

TEST_F(FluidTest, BytesConservation) {
  // Five 2 GB flows through one 10 GB/s resource: every flow completes,
  // and the 10 GB they carry take 1 s at full capacity.
  const auto r = net.add_resource("r", Bandwidth::from_gbps(10.0));
  double served = 0.0;
  SimTime last_done = 0;
  for (int i = 0; i < 5; ++i) {
    FlowSpec spec;
    spec.bytes = 2 * kGB;
    spec.resources = {r};
    spec.on_complete = [&] {
      served += 2 * kGB;
      last_done = sim.now();
    };
    net.start_flow(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(served, 10 * kGB);
  EXPECT_NEAR(static_cast<double>(last_done),
              served / net.capacity(r).bytes_per_second * 1e12, 1e3);
}

TEST_F(FluidTest, ThroughputNeverExceedsCapacity) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(10.0));
  SimTime last_done = 0;
  for (int i = 0; i < 4; ++i) {
    FlowSpec spec;
    spec.bytes = 5 * kGB;
    spec.resources = {r};
    spec.on_complete = [&] { last_done = sim.now(); };
    net.start_flow(std::move(spec));
  }
  sim.run();
  // 20 GB through a 10 GB/s resource takes at least 2 s.
  EXPECT_GE(last_done, from_seconds(2.0) - kMicrosecond);
}

TEST_F(FluidTest, SetCapacityTakesEffect) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  FlowSpec spec;
  spec.bytes = kGB;
  spec.resources = {r};
  const auto id = net.start_flow(std::move(spec));
  net.set_capacity(r, Bandwidth::from_gbps(25.0));
  EXPECT_DOUBLE_EQ(net.current_rate(id), 25.0 * kGB);
  EXPECT_DOUBLE_EQ(net.capacity(r).gbps(), 25.0);
}

TEST_F(FluidTest, RemainingBytesDecreaseOverTime) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(1.0));
  FlowSpec spec;
  spec.bytes = 10 * kGB;
  spec.resources = {r};
  const auto id = net.start_flow(std::move(spec));
  sim.schedule_at(from_seconds(2.0), [&] {
    // Touch the network so progress is synced: start a tiny side flow.
    FlowSpec tick;
    tick.bytes = 1.0;
    tick.resources = {r};
    net.start_flow(std::move(tick));
    EXPECT_NEAR(net.remaining_bytes(id), 8 * kGB, kGB * 0.01);
  });
  sim.run();
}

TEST_F(FluidTest, InvalidSpecsRejected) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(1.0));
  FlowSpec no_bytes;
  no_bytes.resources = {r};
  EXPECT_THROW(net.start_flow(std::move(no_bytes)), Error);

  FlowSpec no_resources;
  no_resources.bytes = 1.0;
  EXPECT_THROW(net.start_flow(std::move(no_resources)), Error);

  FlowSpec bad_resource;
  bad_resource.bytes = 1.0;
  bad_resource.resources = {42};
  EXPECT_THROW(net.start_flow(std::move(bad_resource)), Error);
}

TEST_F(FluidTest, ZeroCapacityResourceRejected) {
  EXPECT_THROW(net.add_resource("zero", Bandwidth{0.0}), Error);
}

TEST_F(FluidTest, QueriesOnUnknownFlowThrow) {
  EXPECT_THROW(net.current_rate(123), Error);
  EXPECT_THROW(net.remaining_bytes(123), Error);
  EXPECT_FALSE(net.active(123));
}

TEST_F(FluidTest, ManyFlowsAllComplete) {
  const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    FlowSpec spec;
    spec.bytes = kGB * (1 + i % 7);
    spec.rate_cap = (i % 3 == 0) ? 0.5 * kGB : 0.0;
    spec.resources = {r};
    spec.on_complete = [&] { ++completed; };
    net.start_flow(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(FluidTest, BusyTimeIsBytesOverCapacity) {
  // Water-filling never runs a resource past its capacity, so a resource
  // carrying one uncapped flow is busy for bytes / capacity: 1 s here.
  const auto r = net.add_resource("r", Bandwidth::from_gbps(10.0));
  SimTime done = -1;
  FlowSpec spec;
  spec.bytes = 10 * kGB;
  spec.resources = {r};
  spec.on_complete = [&] { done = sim.now(); };
  net.start_flow(std::move(spec));
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), 1e12, 1e9);
}

}  // namespace
}  // namespace ghs::sim
