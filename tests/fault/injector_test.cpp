#include "ghs/fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::fault {
namespace {

constexpr SimTime kService = 100 * kMicrosecond;

/// One launch's verdict: whether it fails and its (possibly stretched)
/// service time.
struct Verdict {
  bool failed;
  SimTime service;
};

Verdict judge(Injector& injector, Target target, SimTime begin,
              bool unified = false, SimTime service = kService) {
  const bool failed = injector.judge_launch(target, begin, unified, service);
  return {failed, service};
}

std::int64_t count(telemetry::Registry& registry, const char* name,
                   const char* device) {
  return registry.counter(name, {{"device", device}}).value();
}

TEST(InjectorTest, DownDeviceFailsFastAtTheErrorLatency) {
  const auto plan = parse_plan(
      "device-down gpu from=1ms until=2ms\n"
      "error-latency 7us\n");
  telemetry::Registry registry;
  Injector injector(plan, 1, {&registry});
  for (const SimTime at : {1 * kMillisecond, 2 * kMillisecond - 1}) {
    const Verdict down = judge(injector, Target::kGpu, at);
    EXPECT_TRUE(down.failed);
    EXPECT_EQ(down.service, 7 * kMicrosecond);
  }
  EXPECT_FALSE(judge(injector, Target::kCpu, kMillisecond).failed);
  EXPECT_EQ(count(registry, "ghs_fault_outage_failures_total", "gpu"), 2);
  EXPECT_EQ(count(registry, "ghs_fault_outage_failures_total", "cpu"), 0);
}

TEST(InjectorTest, LaunchOverlappingAnOutageFailsAtFullService) {
  const auto plan = parse_plan("device-down gpu from=1ms until=2ms\n");
  telemetry::Registry registry;
  Injector injector(plan, 1, {&registry});
  // [0.95ms, 1.05ms) runs into the window; [0.9ms, 1ms) ends at its start.
  const Verdict overlapping =
      judge(injector, Target::kGpu, kMillisecond - kService / 2);
  EXPECT_TRUE(overlapping.failed);
  EXPECT_EQ(overlapping.service, kService);
  EXPECT_FALSE(judge(injector, Target::kGpu, kMillisecond - kService).failed);
  EXPECT_FALSE(judge(injector, Target::kGpu, 2 * kMillisecond).failed);
  EXPECT_EQ(count(registry, "ghs_fault_outage_failures_total", "gpu"), 1);
}

TEST(InjectorTest, OverlappingBandwidthEpisodesCompound) {
  const auto plan = parse_plan(
      "bandwidth gpu scale=0.5 from=0ms until=2ms\n"
      "bandwidth gpu scale=0.5 from=1ms until=3ms\n"
      "bandwidth cpu scale=0.25\n");
  telemetry::Registry registry;
  Injector injector(plan, 1, {&registry});
  EXPECT_EQ(judge(injector, Target::kGpu, 0).service, 2 * kService);
  EXPECT_EQ(judge(injector, Target::kGpu, kMillisecond).service,
            4 * kService);
  EXPECT_EQ(judge(injector, Target::kGpu, 3 * kMillisecond).service,
            kService);
  // The CPU episode has no window, so it is active for the whole run.
  EXPECT_EQ(judge(injector, Target::kCpu, 5 * kSecond).service, 4 * kService);
  EXPECT_EQ(count(registry, "ghs_fault_slowed_launches_total", "gpu"), 2);
  EXPECT_EQ(count(registry, "ghs_fault_slowed_launches_total", "cpu"), 1);
}

TEST(InjectorTest, MigrationStallStretchesOnlyUnifiedLaunches) {
  const auto plan = parse_plan(
      "migration-stall scale=0.1 from=2ms until=6ms\n"
      "bandwidth gpu scale=0.5 from=2ms until=6ms\n");
  telemetry::Registry registry;
  Injector injector(plan, 1, {&registry});
  EXPECT_EQ(judge(injector, Target::kGpu, 0, /*unified=*/true).service,
            kService);
  EXPECT_EQ(judge(injector, Target::kGpu, 2 * kMillisecond).service,
            2 * kService);
  // Brown-out and stall compound.
  EXPECT_EQ(
      judge(injector, Target::kGpu, 2 * kMillisecond, /*unified=*/true)
          .service,
      20 * kService);
  EXPECT_EQ(registry.counter("ghs_fault_stalled_launches_total", {}).value(),
            1);
}

TEST(InjectorTest, WindowedKernelFaultFailsEveryLaunchInside) {
  const auto plan = parse_plan("kernel-fault gpu from=1ms until=2ms\n");
  telemetry::Registry registry;
  Injector injector(plan, 1, {&registry});
  EXPECT_FALSE(judge(injector, Target::kGpu, 0).failed);
  const Verdict inside = judge(injector, Target::kGpu, kMillisecond);
  EXPECT_TRUE(inside.failed);
  EXPECT_EQ(inside.service, kService);
  EXPECT_FALSE(judge(injector, Target::kCpu, kMillisecond).failed);
  EXPECT_FALSE(judge(injector, Target::kGpu, 2 * kMillisecond).failed);
  EXPECT_EQ(count(registry, "ghs_fault_kernel_failures_total", "gpu"), 1);
}

TEST(InjectorTest, ProbabilisticFaultsReplayFromSeed) {
  const auto plan = parse_plan("kernel-fault gpu p=0.3\n");
  const auto sequence = [&plan](std::uint64_t seed) {
    Injector injector(plan, seed);
    std::vector<bool> fails;
    for (SimTime t = 0; t < 200; ++t) {
      fails.push_back(judge(injector, Target::kGpu, t).failed);
    }
    return fails;
  };
  const auto a = sequence(42);
  EXPECT_EQ(a, sequence(42));
  EXPECT_NE(a, sequence(43));
  // ~30% of launches fail; a wild miss means the draw is broken.
  const auto failures =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(failures, 30u);
  EXPECT_LT(failures, 90u);
}

TEST(InjectorTest, CertainFaultConsumesNoRandomness) {
  // p=1 and p=0 specs must not draw, so adding them around a fractional
  // spec leaves its stream untouched.
  const auto bare = parse_plan("kernel-fault gpu p=0.5\n");
  const auto padded = parse_plan(
      "kernel-fault cpu p=1\n"
      "kernel-fault gpu p=0.5\n"
      "kernel-fault cpu p=0\n");
  Injector a(bare, 9);
  Injector b(padded, 9);
  for (SimTime t = 0; t < 100; ++t) {
    EXPECT_EQ(judge(a, Target::kGpu, t).failed,
              judge(b, Target::kGpu, t).failed);
  }
}

TEST(InjectorTest, DownDeviceDrawsNoKernelFault) {
  // Launches on a down device skip the kernel-fault draw, so a plan whose
  // outage swallows some launches leaves the later draws where a plan
  // without those launches would put them.
  const auto faults = parse_plan("kernel-fault gpu p=0.5\n");
  const auto with_outage = parse_plan(
      "kernel-fault gpu p=0.5\n"
      "device-down gpu from=1ms until=2ms\n");
  Injector a(faults, 3);
  Injector b(with_outage, 3);
  for (SimTime t = 0; t < 50; ++t) {
    EXPECT_TRUE(judge(b, Target::kGpu, kMillisecond + t).failed);
  }
  for (SimTime t = 0; t < 100; ++t) {
    const SimTime at = 2 * kMillisecond + t;
    EXPECT_EQ(judge(a, Target::kGpu, at).failed,
              judge(b, Target::kGpu, at).failed);
  }
}

TEST(InjectorTest, TransitionsAreSortedUniqueWindowBoundaries) {
  const auto plan = parse_plan(
      "device-down gpu from=1ms until=2ms\n"
      "bandwidth gpu scale=0.5 from=2ms until=4ms\n"
      "kernel-fault gpu p=0.1\n");  // unbounded: no boundary
  Injector injector(plan, 1);
  const std::vector<SimTime> expected = {1 * kMillisecond, 2 * kMillisecond,
                                         4 * kMillisecond};
  EXPECT_EQ(injector.transitions(), expected);
}

std::string plan_error(Injector& injector, Target target, SimTime begin,
                       bool unified) {
  try {
    judge(injector, target, begin, unified);
  } catch (const PlanError& error) {
    return error.what();
  }
  return "";
}

TEST(InjectorTest, StretchPastTheClockNamesThePlanEntry) {
  // A 100 us launch stretched 10^16 times ends 10^12 s out, far past
  // SimTime's 2^63 ps (about 106 days).
  Injector slowed(parse_plan("bandwidth gpu scale=0.5\n"
                             "bandwidth gpu scale=0.0000000000000001\n"),
                  1);
  EXPECT_NE(plan_error(slowed, Target::kGpu, 0, false)
                .find("fault plan entry 'bandwidth gpu scale=1e-16'"),
            std::string::npos);
  EXPECT_FALSE(judge(slowed, Target::kCpu, 0).failed);  // other device

  Injector stalled(parse_plan("migration-stall scale=0.0000000000000001\n"),
                   1);
  EXPECT_FALSE(judge(stalled, Target::kGpu, 0).failed);  // not unified
  EXPECT_NE(plan_error(stalled, Target::kGpu, 0, true)
                .find("fault plan entry 'migration-stall scale=1e-16'"),
            std::string::npos);

  // The launch's end counts, not just its length: a 6.7e18 ps stretch
  // fits from time zero but not from 2^62 ps.
  Injector late(parse_plan("bandwidth gpu scale=0.000000000015\n"), 1);
  EXPECT_GT(judge(late, Target::kGpu, 0).service,
            SimTime{6'000'000'000'000'000'000});
  EXPECT_NE(plan_error(late, Target::kGpu, SimTime{1} << 62, false), "");
}

TEST(InjectorTest, RecordsEveryInjectionAsAFlightEvent) {
  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  const auto plan = parse_plan(
      "kernel-fault gpu from=0ms until=1ms\n"
      "device-down gpu from=2ms until=3ms\n"
      "bandwidth cpu scale=0.5\n"
      "migration-stall scale=0.25\n");
  Injector injector(plan, 1, {&registry, &flight});
  EXPECT_TRUE(judge(injector, Target::kGpu, 0).failed);  // kernel fault
  EXPECT_TRUE(judge(injector, Target::kGpu, 2 * kMillisecond).failed);
  EXPECT_FALSE(judge(injector, Target::kCpu, 0).failed);  // slowed
  EXPECT_FALSE(judge(injector, Target::kGpu, 5 * kMillisecond, true).failed);
  std::vector<std::string> kinds;
  for (const auto& event : flight.events()) {
    EXPECT_EQ(event.layer, "fault");
    kinds.push_back(event.kind);
  }
  const std::vector<std::string> expected = {"kernel_fault", "outage_fault",
                                             "slowdown", "migration_stall"};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(count(registry, "ghs_fault_kernel_failures_total", "gpu"), 1);
  EXPECT_EQ(count(registry, "ghs_fault_outage_failures_total", "gpu"), 1);
  EXPECT_EQ(count(registry, "ghs_fault_slowed_launches_total", "cpu"), 1);
  EXPECT_EQ(registry.counter("ghs_fault_stalled_launches_total", {}).value(),
            1);
}

}  // namespace
}  // namespace ghs::fault
