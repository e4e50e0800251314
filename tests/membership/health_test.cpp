// Phi-accrual health monitor on a bare simulator: silence climbs through
// suspect into dead, resumed heartbeats rejoin after the warm-up window,
// and the sweep chain always terminates.
#include <gtest/gtest.h>

#include <vector>

#include "ghs/membership/health.hpp"
#include "ghs/membership/table.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::membership {
namespace {

struct Fixture {
  sim::Simulator sim;
  Table table;
  std::vector<char> up;

  explicit Fixture(int nodes)
      : table(nodes), up(static_cast<std::size_t>(nodes), 1) {}

  HealthOptions options() const {
    HealthOptions o;
    o.enabled = true;
    o.interval = 100 * kMicrosecond;
    return o;
  }

  std::function<bool(int)> probe() {
    return [this](int i) { return up[static_cast<std::size_t>(i)] != 0; };
  }
};

TEST(HealthMonitor, HealthyFleetNeverTransitions) {
  Fixture f(3);
  HealthMonitor monitor(f.sim, f.table, f.options(), f.probe());
  monitor.start();
  // Keep the sim busy for a while so several sweeps run.
  f.sim.schedule_at(1 * kMillisecond, [] {});
  f.sim.run();
  EXPECT_GE(monitor.sweeps(), 10);
  EXPECT_TRUE(f.table.log().empty());
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(monitor.phi(i), 0.0);
}

TEST(HealthMonitor, SilenceClimbsThroughSuspectIntoDead) {
  Fixture f(2);
  HealthMonitor monitor(f.sim, f.table, f.options(), f.probe());
  monitor.start();
  const SimTime crash = 1 * kMillisecond;
  f.sim.schedule_at(crash, [&] { f.up[1] = 0; });
  f.sim.run();  // chain stays alive via pending() until node 1 is dead
  ASSERT_EQ(f.table.log().size(), 2u);
  const auto& suspect = f.table.log()[0];
  const auto& dead = f.table.log()[1];
  EXPECT_EQ(suspect.node, 1);
  EXPECT_EQ(suspect.to, NodeState::kSuspect);
  EXPECT_EQ(dead.node, 1);
  EXPECT_EQ(dead.to, NodeState::kDead);
  // phi 1.0 ~ 2.3 missed intervals, phi 3.0 ~ 6.9: detection is ordered
  // and happens after the crash, quantised to sweep instants.
  EXPECT_GT(suspect.at, crash);
  EXPECT_GT(dead.at, suspect.at);
  EXPECT_EQ(suspect.at % (100 * kMicrosecond), 0);
  EXPECT_GE(monitor.phi(1), 3.0);
  EXPECT_EQ(f.table.state(0), NodeState::kAlive);
}

TEST(HealthMonitor, ResumedHeartbeatsRejoinAfterWarmup) {
  Fixture f(2);
  HealthMonitor monitor(f.sim, f.table, f.options(), f.probe());
  monitor.start();
  const SimTime restart = 3 * kMillisecond;
  f.sim.schedule_at(1 * kMillisecond, [&] { f.up[1] = 0; });
  f.sim.schedule_at(restart, [&] { f.up[1] = 1; });
  f.sim.run();
  EXPECT_EQ(f.table.state(1), NodeState::kAlive);
  ASSERT_EQ(f.table.log().size(), 3u);
  const auto& rejoin = f.table.log()[2];
  EXPECT_EQ(rejoin.from, NodeState::kDead);
  EXPECT_EQ(rejoin.to, NodeState::kAlive);
  // The node must show kRejoinDelay of continuous health first.
  EXPECT_GE(rejoin.at, restart + kRejoinDelay);
  EXPECT_EQ(rejoin.reason, "rejoined after warm-up");
  EXPECT_DOUBLE_EQ(monitor.phi(1), 0.0);
}

TEST(HealthMonitor, BriefStallOnlySuspectsAndRecoversImmediately) {
  Fixture f(1);
  HealthOptions options = f.options();
  HealthMonitor monitor(f.sim, f.table, options, f.probe());
  monitor.start();
  // Quiet for ~3 intervals: enough for suspect (phi 1.0 ~ 2.3 intervals),
  // not for dead (phi 3.0 ~ 6.9) — then heartbeats resume.
  f.sim.schedule_at(1 * kMillisecond, [&] { f.up[0] = 0; });
  f.sim.schedule_at(1 * kMillisecond + 350 * kMicrosecond,
                    [&] { f.up[0] = 1; });
  f.sim.run();
  ASSERT_EQ(f.table.log().size(), 2u);
  EXPECT_EQ(f.table.log()[0].to, NodeState::kSuspect);
  EXPECT_EQ(f.table.log()[1].to, NodeState::kAlive);
  EXPECT_EQ(f.table.log()[1].reason, "heartbeat resumed");
  // No warm-up for a suspect: the first heartbeat clears it.
  EXPECT_LE(f.table.log()[1].at - f.table.log()[0].at,
            5 * options.interval);
}

TEST(HealthMonitor, DrainingNodesAreNeverScored) {
  Fixture f(2);
  HealthMonitor monitor(f.sim, f.table, f.options(), f.probe());
  monitor.start();
  f.sim.schedule_at(500 * kMicrosecond, [&] {
    f.table.transition(1, NodeState::kDraining, f.sim.now(), "drain");
    f.up[1] = 0;  // silent, but on purpose
  });
  f.sim.schedule_at(3 * kMillisecond, [] {});
  f.sim.run();
  // The only transition is the drain itself; no suspect/dead pile-up.
  ASSERT_EQ(f.table.log().size(), 1u);
  EXPECT_EQ(f.table.state(1), NodeState::kDraining);
}

TEST(HealthMonitor, SameScheduleSameTransitions) {
  const auto once = [] {
    Fixture f(3);
    HealthMonitor monitor(f.sim, f.table, f.options(), f.probe());
    monitor.start();
    f.sim.schedule_at(700 * kMicrosecond, [&] { f.up[2] = 0; });
    f.sim.schedule_at(2 * kMillisecond, [&] { f.up[2] = 1; });
    f.sim.run();
    std::vector<std::pair<SimTime, int>> log;
    for (const auto& t : f.table.log()) {
      log.emplace_back(t.at, static_cast<int>(t.to));
    }
    return log;
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace ghs::membership
