#include "ghs/serve/policy.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::serve {
namespace {

Job job(JobId id, workload::CaseId case_id, std::int64_t elements) {
  Job j;
  j.id = id;
  j.case_id = case_id;
  j.elements = elements;
  return j;
}

AdmissionQueue small_mixed_queue() {
  AdmissionQueue queue(8);
  queue.push(job(0, workload::CaseId::kC1, 1 << 18));
  queue.push(job(1, workload::CaseId::kC3, 1 << 14));
  queue.push(job(2, workload::CaseId::kC4, 1 << 16));
  return queue;
}

TEST(FifoPolicyTest, PicksFrontAndNeverUsesCpu) {
  FifoPolicy policy;
  auto queue = small_mixed_queue();
  EXPECT_EQ(policy.select(queue, Placement::kGpu, 0), std::size_t{0});
  EXPECT_EQ(policy.select(queue, Placement::kCpu, 0), std::nullopt);
  AdmissionQueue empty(4);
  EXPECT_EQ(policy.select(empty, Placement::kGpu, 0), std::nullopt);
}

TEST(FifoPolicyTest, GeometryIsPaperBest) {
  FifoPolicy policy;
  const auto c2 = policy.geometry(job(0, workload::CaseId::kC2, 1 << 18));
  EXPECT_EQ(c2.teams, 65536);
  EXPECT_EQ(c2.v, 32);
  const auto c1 = policy.geometry(job(1, workload::CaseId::kC1, 1 << 18));
  EXPECT_EQ(c1.v, 4);
}

TEST(SjfPolicyTest, PicksSmallestBytesNotSmallestElements) {
  ShortestJobFirstPolicy policy;
  AdmissionQueue queue(8);
  // C2 is 1 byte/element, C4 is 8: 2^16 elements of C4 (512 KiB) outweigh
  // 2^18 elements of C2 (256 KiB).
  queue.push(job(0, workload::CaseId::kC4, 1 << 16));
  queue.push(job(1, workload::CaseId::kC2, 1 << 18));
  EXPECT_EQ(policy.select(queue, Placement::kGpu, 0), std::size_t{1});
  EXPECT_EQ(policy.select(queue, Placement::kCpu, 0), std::nullopt);
}

TEST(BandwidthAwarePolicyTest, TunerCacheHitsOnRepeatedShapes) {
  ServiceModel model;
  BandwidthAwarePolicy policy(model);
  const auto first = policy.geometry(job(0, workload::CaseId::kC1, 1 << 18));
  EXPECT_EQ(policy.tuner_cache().misses, 1);
  EXPECT_EQ(policy.tuner_cache().hits, 0);
  const auto second = policy.geometry(job(1, workload::CaseId::kC1, 1 << 18));
  EXPECT_EQ(policy.tuner_cache().misses, 1);
  EXPECT_EQ(policy.tuner_cache().hits, 1);
  EXPECT_EQ(first.teams, second.teams);
  EXPECT_EQ(first.v, second.v);
  // A different shape is a fresh hill climb.
  policy.geometry(job(2, workload::CaseId::kC1, 1 << 19));
  EXPECT_EQ(policy.tuner_cache().misses, 2);
}

TEST(BandwidthAwarePolicyTest, PlacesSmallJobsOnCpuAndLargeOnGpu) {
  ServiceModel model;
  BandwidthAwarePolicy policy(model);
  EXPECT_TRUE(policy.cpu_eligible(job(0, workload::CaseId::kC1, 1 << 14)));
  // Far beyond kMaxCpuBytes (64 MiB): 2^26 float64 elements = 512 MiB.
  EXPECT_FALSE(policy.cpu_eligible(job(1, workload::CaseId::kC4, 1 << 26)));
}

TEST(BandwidthAwarePolicyTest, CpuSelectSkipsIneligibleJobs) {
  ServiceModel model;
  BandwidthAwarePolicy policy(model);
  AdmissionQueue queue(8);
  queue.push(job(0, workload::CaseId::kC4, 1 << 24));  // 128 MiB: GPU only
  queue.push(job(1, workload::CaseId::kC1, 1 << 14));  // 64 KiB: CPU ok
  EXPECT_EQ(policy.select(queue, Placement::kGpu, 0), std::size_t{0});
  EXPECT_EQ(policy.select(queue, Placement::kCpu, 0), std::size_t{1});
}

TEST(PolicyFactoryTest, MakesAllThreeAndRejectsUnknown) {
  ServiceModel model;
  EXPECT_STREQ(make_policy("fifo", model)->name(), "fifo");
  EXPECT_STREQ(make_policy("sjf", model)->name(), "sjf");
  EXPECT_STREQ(make_policy("bandwidth", model)->name(), "bandwidth");
  EXPECT_THROW(make_policy("round-robin", model), Error);
}

}  // namespace
}  // namespace ghs::serve
