#include "ghs/serve/queue.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::serve {
namespace {

Job job(JobId id, std::int64_t elements = 1024) {
  Job j;
  j.id = id;
  j.elements = elements;
  return j;
}

TEST(AdmissionQueueTest, AdmitsUpToDepthThenRejects) {
  AdmissionQueue queue(3);
  EXPECT_TRUE(queue.push(job(0)));
  EXPECT_TRUE(queue.push(job(1)));
  EXPECT_TRUE(queue.push(job(2)));
  EXPECT_FALSE(queue.push(job(3)));
  EXPECT_FALSE(queue.push(job(4)));
  EXPECT_EQ(queue.size(), 3u);
}

TEST(AdmissionQueueTest, DrainingReopensAdmission) {
  AdmissionQueue queue(2);
  EXPECT_TRUE(queue.push(job(0)));
  EXPECT_TRUE(queue.push(job(1)));
  EXPECT_FALSE(queue.push(job(2)));
  queue.take(0);
  EXPECT_TRUE(queue.push(job(3)));
  EXPECT_FALSE(queue.push(job(4)));
}

TEST(AdmissionQueueTest, TakePreservesArrivalOrderOfOthers) {
  AdmissionQueue queue(8);
  for (JobId id = 0; id < 5; ++id) queue.push(job(id));
  EXPECT_EQ(queue.take(2).id, 2);
  EXPECT_EQ(queue.at(0).id, 0);
  EXPECT_EQ(queue.at(1).id, 1);
  EXPECT_EQ(queue.at(2).id, 3);
  EXPECT_EQ(queue.at(3).id, 4);
}

TEST(AdmissionQueueTest, HighWatermarkTracksDeepestFill) {
  AdmissionQueue queue(8);
  queue.push(job(0));
  queue.push(job(1));
  queue.take(0);
  queue.take(0);
  queue.push(job(2));
  EXPECT_EQ(queue.high_watermark(), 2u);
}

TEST(AdmissionQueueTest, GuardsBadAccess) {
  AdmissionQueue queue(2);
  EXPECT_THROW(queue.at(0), Error);
  EXPECT_THROW(queue.take(0), Error);
  EXPECT_THROW(AdmissionQueue(0), Error);
  EXPECT_THROW(queue.push(job(0, 0)), Error);
}

}  // namespace
}  // namespace ghs::serve
