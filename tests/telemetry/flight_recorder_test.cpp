#include "ghs/telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace ghs::telemetry {
namespace {

int formats = 0;

/// (job id)
constexpr EventType kAdmit{"serve", "admit",
                           [](std::string& out, const EventArgs& a) {
                             ++formats;
                             out += "job " + std::to_string(a.i(0));
                           }};
/// (case name, jobs)
constexpr EventType kLaunch{"gpu", "launch",
                            [](std::string& out, const EventArgs& a) {
                              out += a.s(0);
                              out += " x" + std::to_string(a.i(1));
                            }};
/// (step)
constexpr EventType kMigrate{"um", "migrate",
                             [](std::string& out, const EventArgs& a) {
                               out += std::to_string(a.i(0));
                             }};
constexpr EventType kStep{"sim", "step", nullptr};
/// (interned label, scale)
constexpr EventType kLabeled{"tuner", "cache_miss",
                             [](std::string& out, const EventArgs& a) {
                               out += a.name(0);
                               out += " x" + std::to_string(a.d(1));
                             }};

TEST(FlightRecorderTest, KeepsEventsInOrder) {
  FlightRecorder recorder(8);
  recorder.record(100, kAdmit, 0);
  recorder.record(200, kLaunch, "C1", 2);
  ASSERT_EQ(recorder.size(), 2u);
  const auto events = recorder.events();
  EXPECT_EQ(events[0].at, 100);
  EXPECT_EQ(events[0].layer, "serve");
  EXPECT_EQ(events[0].kind, "admit");
  EXPECT_EQ(events[0].detail, "job 0");
  EXPECT_EQ(events[1].layer, "gpu");
  EXPECT_EQ(events[1].detail, "C1 x2");
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(FlightRecorderTest, FormatsOnlyWhenRead) {
  // Records overwritten before anyone reads them are never formatted.
  formats = 0;
  FlightRecorder recorder(2);
  for (int i = 0; i < 100; ++i) recorder.record(i, kAdmit, i);
  EXPECT_EQ(formats, 0);
  const auto events = recorder.events();
  EXPECT_EQ(formats, 2);
  EXPECT_EQ(events[0].detail, "job 98");
  EXPECT_EQ(events[1].detail, "job 99");
}

TEST(FlightRecorderTest, RingDropsOldestFirst) {
  FlightRecorder recorder(3);
  for (int i = 0; i < 5; ++i) recorder.record(i, kMigrate, i);
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.total_recorded(), 5);
  EXPECT_EQ(recorder.dropped(), 2);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest surviving event is #2; order is oldest first.
  EXPECT_EQ(events[0].detail, "2");
  EXPECT_EQ(events[2].detail, "4");
}

TEST(FlightRecorderTest, DumpMentionsDrops) {
  FlightRecorder recorder(2);
  for (int i = 0; i < 3; ++i) recorder.record(i, kStep);
  std::ostringstream oss;
  recorder.dump(oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("sim step\n"), std::string::npos);
  EXPECT_NE(text.find("2 events"), std::string::npos);
  EXPECT_NE(text.find("(1 older events dropped)"), std::string::npos);
}

TEST(FlightRecorderTest, InternedNamesAndDoublesReadBack) {
  FlightRecorder recorder(4);
  const std::int64_t id = recorder.intern("C2-opt");
  EXPECT_EQ(recorder.intern("C3-opt"), id + 1);
  EXPECT_EQ(recorder.intern("C2-opt"), id);
  recorder.record(1, kLabeled, id, 0.5);
  recorder.clear();  // interned ids outlive a clear
  recorder.record(2, kLabeled, recorder.intern("C2-opt"), 2.0);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "C2-opt x2.000000");
}

TEST(FlightRecorderTest, ClearResetsEverything) {
  FlightRecorder recorder(4);
  recorder.record(0, kAdmit, 0);
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0);
  EXPECT_TRUE(recorder.events().empty());
}

TEST(FlightRecorderTest, NullSafeHelperIsANoOp) {
  EXPECT_NO_THROW(record_event(nullptr, 0, kAdmit, 1));
  FlightRecorder recorder(4);
  record_event(&recorder, 7, kLabeled, recorder.intern("C3"), 1.0);
  ASSERT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events()[0].kind, "cache_miss");
}

}  // namespace
}  // namespace ghs::telemetry
