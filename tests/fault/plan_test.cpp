#include "ghs/fault/plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ghs/util/error.hpp"

namespace ghs::fault {
namespace {

TEST(FaultPlanTest, ParsesEveryFaultKind) {
  const auto plan = parse_plan(
      "# a comment line\n"
      "kernel-fault gpu p=0.05\n"
      "kernel-fault cpu from=2ms until=3ms\n"
      "bandwidth gpu scale=0.25 from=1ms until=4ms\n"
      "device-down gpu from=5ms until=8ms\n"
      "migration-stall scale=0.1 from=2ms until=6ms\n"
      "error-latency 25us\n");
  ASSERT_EQ(plan.kernel_faults.size(), 2u);
  EXPECT_EQ(plan.kernel_faults[0].target, Target::kGpu);
  EXPECT_DOUBLE_EQ(plan.kernel_faults[0].probability, 0.05);
  EXPECT_TRUE(plan.kernel_faults[0].window.unbounded());
  EXPECT_EQ(plan.kernel_faults[1].target, Target::kCpu);
  EXPECT_DOUBLE_EQ(plan.kernel_faults[1].probability, 1.0);
  EXPECT_EQ(plan.kernel_faults[1].window.begin, 2 * kMillisecond);
  EXPECT_EQ(plan.kernel_faults[1].window.end, 3 * kMillisecond);
  ASSERT_EQ(plan.bandwidth_episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.bandwidth_episodes[0].scale, 0.25);
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].window.begin, 5 * kMillisecond);
  ASSERT_EQ(plan.migration_stalls.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.migration_stalls[0].scale, 0.1);
  EXPECT_EQ(plan.down_error_latency, 25 * kMicrosecond);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.size(), 5u);
}

TEST(FaultPlanTest, EmptyAndCommentOnlyTextYieldsEmptyPlan) {
  EXPECT_TRUE(parse_plan("").empty());
  EXPECT_TRUE(parse_plan("# nothing\n\n  # also nothing\n").empty());
}

TEST(FaultPlanTest, TimeUnitsCoverPicosecondsToSeconds) {
  const auto plan = parse_plan("device-down gpu from=500ns until=1500000ps\n"
                               "device-down cpu from=1ms until=2s\n");
  EXPECT_EQ(plan.outages[0].window.begin, 500 * kNanosecond);
  EXPECT_EQ(plan.outages[0].window.end, 1500000 * kPicosecond);
  EXPECT_EQ(plan.outages[1].window.end, 2 * kSecond);
}

TEST(FaultPlanTest, RejectsMalformedLinesWithLineNumbers) {
  EXPECT_THROW(parse_plan("explode gpu\n"), Error);
  EXPECT_THROW(parse_plan("kernel-fault gpu p=1.5\n"), Error);
  EXPECT_THROW(parse_plan("kernel-fault gpu\n"), Error);  // no p, no window
  EXPECT_THROW(parse_plan("bandwidth gpu from=1ms until=2ms\n"), Error);
  EXPECT_THROW(parse_plan("bandwidth gpu scale=0\n"), Error);
  EXPECT_THROW(parse_plan("device-down gpu\n"), Error);
  EXPECT_THROW(parse_plan("device-down nvme from=1ms until=2ms\n"), Error);
  EXPECT_THROW(parse_plan("device-down gpu from=2ms until=1ms\n"), Error);
  EXPECT_THROW(parse_plan("device-down gpu from=2 until=3\n"), Error);
  EXPECT_THROW(parse_plan("kernel-fault gpu probability=0.5\n"), Error);
  try {
    parse_plan("kernel-fault gpu p=0.5\nbogus\n");
    FAIL() << "expected parse error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(NodeCrashPlanTest, ParsesCrashAndRestartEntries) {
  const auto plan = parse_crash_plan("1@300us:2ms, 2@1ms\n3@500ns");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.crashes[0].node, 1);
  EXPECT_EQ(plan.crashes[0].at, 300 * kMicrosecond);
  EXPECT_EQ(plan.crashes[0].restart_at, 2 * kMillisecond);
  EXPECT_EQ(plan.crashes[1].node, 2);
  EXPECT_EQ(plan.crashes[1].restart_at, 0);  // never restarts
  EXPECT_EQ(plan.crashes[2].at, 500 * kNanosecond);
  EXPECT_TRUE(parse_crash_plan("").empty());
  EXPECT_TRUE(parse_crash_plan("  \n ,").empty());
}

TEST(NodeCrashPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_crash_plan("bogus"), Error);
  EXPECT_THROW(parse_crash_plan("1"), Error);           // no time
  EXPECT_THROW(parse_crash_plan("@300us"), Error);      // no node
  EXPECT_THROW(parse_crash_plan("-1@300us"), Error);    // negative node
  EXPECT_THROW(parse_crash_plan("1@300us:100us"), Error);  // restart <= at
  EXPECT_THROW(parse_crash_plan("1@300usx"), Error);    // trailing junk
}

TEST(DrainPlanTest, SharesTheCrashEntryGrammarWithoutRestarts) {
  const auto drains = parse_drain_plan("1@300us, 2@1ms\n0@500ns");
  ASSERT_EQ(drains.size(), 3u);
  EXPECT_EQ(drains[0].node, 1);
  EXPECT_EQ(drains[0].at, 300 * kMicrosecond);
  EXPECT_EQ(drains[1].node, 2);
  EXPECT_EQ(drains[1].at, 1 * kMillisecond);
  EXPECT_EQ(drains[2].node, 0);
  EXPECT_EQ(drains[2].at, 500 * kNanosecond);
  EXPECT_TRUE(parse_drain_plan("").empty());
  EXPECT_TRUE(parse_drain_plan("  \n ,").empty());
  EXPECT_THROW(parse_drain_plan("1@1ms:2ms"), Error);  // no restart
  EXPECT_THROW(parse_drain_plan("1@0ms"), Error);      // zero time
  EXPECT_THROW(parse_drain_plan("x@1ms"), Error);      // bad node index
  EXPECT_THROW(parse_drain_plan("-1@1ms"), Error);     // negative node
  EXPECT_THROW(parse_drain_plan("@1ms"), Error);       // no node
  EXPECT_THROW(parse_drain_plan("1@"), Error);         // no time
  EXPECT_THROW(parse_drain_plan("1"), Error);          // no @
  EXPECT_THROW(parse_drain_plan("1@1msx"), Error);     // trailing junk
}

TEST(NodeCrashPlanTest, FormatRoundTripsThroughParse) {
  const auto plan = parse_crash_plan("1@300us:2ms,0@1ms");
  const auto reparsed = parse_crash_plan(format_crash_plan(plan));
  EXPECT_EQ(format_crash_plan(reparsed), format_crash_plan(plan));
  ASSERT_EQ(reparsed.size(), plan.size());
  EXPECT_EQ(reparsed.crashes[0].restart_at, plan.crashes[0].restart_at);
}

TEST(ParseDurationTest, CoversAllUnitsAndRejectsJunk) {
  EXPECT_EQ(parse_duration("250ps"), 250);
  EXPECT_EQ(parse_duration("3ns"), 3 * kNanosecond);
  EXPECT_EQ(parse_duration("40us"), 40 * kMicrosecond);
  EXPECT_EQ(parse_duration("7ms"), 7 * kMillisecond);
  EXPECT_EQ(parse_duration("2s"), 2 * kSecond);
  EXPECT_THROW(parse_duration(""), Error);
  EXPECT_THROW(parse_duration("10"), Error);    // unit required
  EXPECT_THROW(parse_duration("ms"), Error);    // value required
  EXPECT_THROW(parse_duration("-1us"), Error);  // negative
}

/// The message a parser's ghs::Error carries, or "" when it parses.
template <typename Parse>
std::string error_of(Parse&& parse) {
  try {
    parse();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(ParseDurationTest, RejectsTimesBeyondTheClock) {
  // 2^63 ps (about 106 days) is the first time SimTime cannot hold.
  EXPECT_EQ(parse_duration("9000000s"), 9'000'000 * kSecond);
  EXPECT_EQ(parse_duration("9223372036854774784ps"),
            std::int64_t{9223372036854774784});  // 2^63 - 1024
  EXPECT_THROW(parse_duration("9223372036854775808ps"), Error);  // 2^63
  EXPECT_THROW(parse_duration("9300000s"), Error);
  EXPECT_NE(error_of([] { parse_duration("99999999s"); })
                .find("time '99999999s' is beyond"),
            std::string::npos);
  // Each schedule and plan blames the entry that holds the time.
  EXPECT_NE(error_of([] { parse_crash_plan("1@99999999s"); })
                .find("crash spec '1@99999999s'"),
            std::string::npos);
  EXPECT_NE(error_of([] { parse_crash_plan("1@1ms:99999999s"); })
                .find("crash spec '1@1ms:99999999s'"),
            std::string::npos);
  EXPECT_NE(error_of([] { parse_drain_plan("1@99999999s"); })
                .find("drain spec '1@99999999s'"),
            std::string::npos);
  const std::string line = error_of(
      [] { parse_plan("device-down gpu from=1ms until=99999999s\n"); });
  EXPECT_NE(line.find("fault plan line 1: "), std::string::npos);
  EXPECT_NE(line.find("is beyond"), std::string::npos);
}

TEST(FaultPlanTest, WindowSemantics) {
  Window window{10, 20};
  EXPECT_TRUE(window.contains(10));
  EXPECT_TRUE(window.contains(19));
  EXPECT_FALSE(window.contains(20));  // half-open
  EXPECT_FALSE(window.contains(9));
  EXPECT_TRUE(window.overlaps(0, 11));
  EXPECT_TRUE(window.overlaps(19, 30));
  EXPECT_FALSE(window.overlaps(0, 10));
  EXPECT_FALSE(window.overlaps(20, 30));
  EXPECT_FALSE(window.unbounded());
  EXPECT_TRUE(Window{}.unbounded());
}

}  // namespace
}  // namespace ghs::fault
