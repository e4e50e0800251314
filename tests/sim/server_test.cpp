#include "ghs/sim/server.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::sim {
namespace {

TEST(SerialServerTest, IdleServerServesImmediately) {
  SerialServer server;
  EXPECT_EQ(server.submit_batch(100, 10, 1), 110);
  EXPECT_EQ(server.available_at(), 110);
}

TEST(SerialServerTest, BackToBackSubmissionsQueue) {
  SerialServer server;
  server.submit_batch(0, 10, 1);
  EXPECT_EQ(server.submit_batch(0, 10, 1), 20);
  EXPECT_EQ(server.submit_batch(5, 10, 1), 30);
}

TEST(SerialServerTest, LateArrivalAfterIdleGap) {
  SerialServer server;
  server.submit_batch(0, 10, 1);  // done at 10
  EXPECT_EQ(server.submit_batch(100, 5, 1), 105);
}

TEST(SerialServerTest, BatchEqualsRepeatedSubmit) {
  SerialServer a;
  SerialServer b;
  const SimTime batch_done = a.submit_batch(7, 3, 5);
  SimTime single_done = 0;
  for (int i = 0; i < 5; ++i) single_done = b.submit_batch(7, 3, 1);
  EXPECT_EQ(batch_done, single_done);
  EXPECT_EQ(a.busy_time(), b.busy_time());
}

TEST(SerialServerTest, EmptyBatchIsNoOp) {
  SerialServer server;
  server.submit_batch(0, 10, 1);
  EXPECT_EQ(server.submit_batch(0, 10, 0), 10);
  EXPECT_EQ(server.completed(), 1);
}

TEST(SerialServerTest, BusyTimeAccumulates) {
  SerialServer server;
  server.submit_batch(0, 2, 100);
  EXPECT_EQ(server.busy_time(), 200);
  EXPECT_EQ(server.completed(), 100);
}

TEST(SerialServerTest, RejectsNegativeArguments) {
  SerialServer server;
  EXPECT_THROW(server.submit_batch(-1, 1, 1), Error);
  EXPECT_THROW(server.submit_batch(0, -1, 1), Error);
  EXPECT_THROW(server.submit_batch(0, 1, -1), Error);
}

TEST(SerialServerTest, MillionsOfCombinesScaleLinearly) {
  // The C1 baseline submits 8.192 M combines at 0.82 ns.
  SerialServer server;
  const SimTime done = server.submit_batch(0, 820, 8'192'000);
  EXPECT_EQ(done, 820LL * 8'192'000);
}

}  // namespace
}  // namespace ghs::sim
