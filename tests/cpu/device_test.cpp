#include "ghs/cpu/device.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "ghs/util/error.hpp"

namespace ghs::cpu {
namespace {

class CpuDeviceTest : public ::testing::Test {
 protected:
  CpuDeviceTest()
      : topo_(sim_, mem::TopologyConfig{}),
        um_(topo_, um::UmPolicy{}),
        device_(sim_, topo_, um_, CpuConfig{}) {}

  CpuReduceRequest request(std::int64_t elements, Bytes elem_size,
                           int threads) {
    CpuReduceRequest r;
    r.label = "test";
    r.elements = elements;
    r.element_size = elem_size;
    r.threads = threads;
    return r;
  }

  CpuReduceResult run(const CpuReduceRequest& r) {
    std::optional<CpuReduceResult> result;
    device_.reduce(r, [&](const CpuReduceResult& x) { result = x; });
    sim_.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }

  sim::Simulator sim_;
  mem::Topology topo_;
  um::UmManager um_;
  CpuDevice device_;
};

TEST_F(CpuDeviceTest, FullSocketIsAggregateBound) {
  // 4.8 GB with 72 cores: aggregate 480 GB/s -> ~10 ms + region overhead.
  const auto result = run(request(1'200'000'000, 4, 72));
  EXPECT_NEAR(result.bandwidth().gbps(), 480.0, 5.0);
}

TEST_F(CpuDeviceTest, FewCoresArePerCoreBound) {
  const auto result = run(request(100'000'000, 4, 4));
  // 4 cores x 9 GB/s = 36 GB/s.
  EXPECT_NEAR(result.bandwidth().gbps(), 36.0, 1.0);
}

TEST_F(CpuDeviceTest, ScalingSaturates) {
  const auto few = run(request(400'000'000, 4, 8));
  const auto half = run(request(400'000'000, 4, 36));
  const auto full = run(request(400'000'000, 4, 72));
  EXPECT_GT(half.bandwidth().gbps(), few.bandwidth().gbps() * 3.0);
  // 36 x 9 = 324 < 480; 72 x 9 = 648 capped at 480: sublinear step.
  EXPECT_LT(full.bandwidth().gbps(), half.bandwidth().gbps() * 1.6);
}

TEST_F(CpuDeviceTest, ScalarInt8IsComputeBound) {
  CpuReduceRequest r = request(4'000'000'000, 1, 72);
  r.use_simd = false;
  const auto result = run(r);
  // 72 cores x 1.5 elem/cycle x 3.3 GHz x 1 B = 356 GB/s < 480.
  EXPECT_LT(result.bandwidth().gbps(), 400.0);
  r.use_simd = true;
  const auto simd_result = run(r);
  EXPECT_GT(simd_result.bandwidth().gbps(), result.bandwidth().gbps());
}

TEST_F(CpuDeviceTest, RemoteHbmReadIsSlower) {
  const Bytes bytes = 1'200'000'000;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kHbm, "in");
  CpuReduceRequest r = request(bytes / 4, 4, 72);
  r.managed = true;
  r.managed_alloc = alloc;
  const auto remote = run(r);
  EXPECT_NEAR(remote.bandwidth().gbps(), 351.0, 5.0);
  EXPECT_EQ(remote.remote_bytes, bytes);

  const auto local = run(request(bytes / 4, 4, 72));
  EXPECT_NEAR(local.bandwidth().gbps() / remote.bandwidth().gbps(), 1.367,
              0.03);
}

TEST_F(CpuDeviceTest, ManagedLocalReadsDoNotCountRemote) {
  const Bytes bytes = 400 * kMiB;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kLpddr, "in");
  CpuReduceRequest r = request(bytes / 4, 4, 72);
  r.managed = true;
  r.managed_alloc = alloc;
  const auto result = run(r);
  EXPECT_EQ(result.remote_bytes, 0);
}

TEST_F(CpuDeviceTest, MixedResidencyCreatesStraggler) {
  const Bytes bytes = 1'200'000'000;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kLpddr, "in");
  // Second half in HBM.
  um_.complete_segment(alloc, bytes / 2, bytes / 2, mem::RegionId::kHbm);
  CpuReduceRequest r = request(bytes / 4, 4, 72);
  r.managed = true;
  r.managed_alloc = alloc;
  const auto mixed = run(r);
  // The two halves stream concurrently but share the socket mesh: the
  // result lands between all-remote (351) and the socket cap (520).
  EXPECT_GT(mixed.bandwidth().gbps(), 351.0);
  EXPECT_LE(mixed.bandwidth().gbps(), 521.0);
}

TEST_F(CpuDeviceTest, DynamicScheduleFixesTheStraggler) {
  const Bytes bytes = 1'200'000'000;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kLpddr, "in");
  um_.complete_segment(alloc, bytes / 2, bytes / 2, mem::RegionId::kHbm);
  CpuReduceRequest r = request(bytes / 4, 4, 72);
  r.managed = true;
  r.managed_alloc = alloc;

  r.schedule = ScheduleKind::kStatic;
  const auto static_run = run(r);
  r.schedule = ScheduleKind::kDynamic;
  const auto dynamic_run = run(r);
  // With rebalancing, the local half is not limited to half the cores:
  // dynamic strictly beats static on mixed residency.
  EXPECT_GT(dynamic_run.bandwidth().gbps(), static_run.bandwidth().gbps());
}

TEST_F(CpuDeviceTest, DynamicScheduleCostsOverheadOnUniformWork) {
  CpuReduceRequest r = request(50'000'000, 4, 72);
  r.schedule = ScheduleKind::kStatic;
  const auto static_run = run(r);
  r.schedule = ScheduleKind::kDynamic;
  const auto dynamic_run = run(r);
  // Uniform local work: dynamic only adds its work-queue overhead.
  EXPECT_GT(dynamic_run.duration(), static_run.duration());
  EXPECT_LT(dynamic_run.duration() - static_run.duration(),
            2 * device_.config().dynamic_schedule_overhead);
}

TEST_F(CpuDeviceTest, GuidedSitsBetweenStaticAndDynamicOnOverhead) {
  CpuReduceRequest r = request(50'000'000, 4, 72);
  r.schedule = ScheduleKind::kGuided;
  const auto guided = run(r);
  r.schedule = ScheduleKind::kDynamic;
  const auto dynamic = run(r);
  EXPECT_LT(guided.duration(), dynamic.duration());
}

TEST_F(CpuDeviceTest, ScheduleNames) {
  EXPECT_STREQ(schedule_name(ScheduleKind::kStatic), "static");
  EXPECT_STREQ(schedule_name(ScheduleKind::kDynamic), "dynamic");
  EXPECT_STREQ(schedule_name(ScheduleKind::kGuided), "guided");
}

TEST_F(CpuDeviceTest, MultiStreamRequestDoublesBytes) {
  CpuReduceRequest r = request(100'000'000, 4, 72);
  const auto single = run(r);
  r.input_streams = 2;
  const auto twin = run(r);
  EXPECT_EQ(twin.bytes, 2 * single.bytes);
  EXPECT_GT(twin.duration(), single.duration());
}

TEST_F(CpuDeviceTest, MultiStreamManagedRejected) {
  const auto alloc = um_.allocate(1000, mem::RegionId::kLpddr, "in");
  CpuReduceRequest r = request(100, 4, 8);
  r.managed = true;
  r.managed_alloc = alloc;
  r.input_streams = 2;
  EXPECT_THROW(run(r), ghs::Error);
}

TEST_F(CpuDeviceTest, RegionOverheadCharged) {
  CpuReduceRequest r = request(1000, 4, 72);
  const auto with_overhead = run(r);
  EXPECT_GE(with_overhead.duration(),
            device_.config().parallel_region_overhead);
  r.include_region_overhead = false;
  const auto without = run(r);
  EXPECT_LT(without.duration(), with_overhead.duration());
}

TEST_F(CpuDeviceTest, InvalidRequestsRejected) {
  EXPECT_THROW(run(request(0, 4, 72)), ghs::Error);
  EXPECT_THROW(run(request(100, 4, 0)), ghs::Error);
  EXPECT_THROW(run(request(100, 4, 73)), ghs::Error);
}

TEST_F(CpuDeviceTest, ComputeRateCapFormula) {
  // simd: threads x 32 B/cycle x 3.3e9.
  EXPECT_NEAR(device_.compute_rate_cap(10, true, 4), 10 * 32.0 * 3.3e9,
              1e6);
  // scalar: threads x 1.5 elem/cycle x elem_size x 3.3e9.
  EXPECT_NEAR(device_.compute_rate_cap(10, false, 8),
              10 * 1.5 * 8.0 * 3.3e9, 1e6);
}

}  // namespace
}  // namespace ghs::cpu
