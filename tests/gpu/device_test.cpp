#include "ghs/gpu/device.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "ghs/gpu/occupancy.hpp"
#include "ghs/util/error.hpp"

namespace ghs::gpu {
namespace {

class GpuDeviceTest : public ::testing::Test {
 protected:
  GpuDeviceTest()
      : topo_(sim_, mem::TopologyConfig{}),
        um_(topo_, um::UmPolicy{}),
        device_(sim_, topo_, um_, GpuConfig{}) {}

  KernelDesc explicit_kernel(std::int64_t elements, std::int64_t grid,
                             int threads, int v, Bytes elem_size) {
    KernelDesc desc;
    desc.label = "test";
    desc.grid = grid;
    desc.threads_per_cta = threads;
    desc.elements = elements;
    desc.element_size = elem_size;
    desc.v = v;
    desc.combine = CombineClass::kNativeInt;
    desc.input = InputLocation::kDeviceBuffer;
    return desc;
  }

  KernelResult run(const KernelDesc& desc) {
    std::optional<KernelResult> result;
    device_.launch(desc, [&](const KernelResult& r) { result = r; });
    sim_.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }

  sim::Simulator sim_;
  mem::Topology topo_;
  um::UmManager um_;
  GpuDevice device_;
};

TEST_F(GpuDeviceTest, KernelCompletesAndReportsBytes) {
  const auto result = run(explicit_kernel(1 << 24, 4096, 256, 4, 4));
  EXPECT_EQ(result.bytes, (1LL << 24) * 4);
  EXPECT_GT(result.duration(), 0);
  EXPECT_EQ(result.remote_bytes, 0);
}

TEST_F(GpuDeviceTest, BandwidthNeverExceedsStreamEfficiencyCap) {
  const auto result = run(explicit_kernel(1 << 26, 65536 / 4, 256, 4, 4));
  const double cap =
      device_.config().stream_efficiency(4) * 4022.7;
  EXPECT_LE(result.bandwidth().gbps(), cap + 1.0);
  // A saturating config should land close to the cap (launch latency and
  // the tail wave cost a couple of percent at this size).
  EXPECT_GT(result.bandwidth().gbps(), cap * 0.92);
}

TEST_F(GpuDeviceTest, BandwidthMonotoneInGridUntilSaturation) {
  double previous = 0.0;
  for (std::int64_t teams : {128, 512, 2048, 8192}) {
    const auto result = run(explicit_kernel(1 << 26, teams, 256, 1, 4));
    // Allow 1 % slack: wave quantisation makes the saturated region flat
    // rather than strictly increasing.
    EXPECT_GE(result.bandwidth().gbps(), previous * 0.99)
        << "teams=" << teams;
    previous = result.bandwidth().gbps();
  }
}

TEST_F(GpuDeviceTest, SmallGridIsLatencyBound) {
  // 128 CTAs of v1/int32: the MLP cap should bind well below peak.
  const auto result = run(explicit_kernel(1 << 26, 128, 256, 1, 4));
  const double cap_gbps =
      128.0 * cta_rate_cap(device_.config(), 256, 1, 4) / 1e9;
  EXPECT_LT(result.bandwidth().gbps(), cap_gbps * 1.05);
  EXPECT_GT(result.bandwidth().gbps(), cap_gbps * 0.5);
}

TEST_F(GpuDeviceTest, HugeGridIsCombineBound) {
  // Baseline-like: one element per thread. The serial combine unit should
  // dominate: duration >= grid * combine cost.
  const std::int64_t grid = 1 << 20;
  const auto result = run(explicit_kernel(grid * 128, grid, 128, 1, 4));
  const SimTime combine_floor =
      device_.config().combine_native_int * grid;
  EXPECT_GE(result.duration(), combine_floor);
  EXPECT_LE(result.duration(), combine_floor * 2);
}

TEST_F(GpuDeviceTest, FloatCombineSlowerThanIntForHugeGrids) {
  const std::int64_t grid = 1 << 20;
  auto desc = explicit_kernel(grid * 128, grid, 128, 1, 4);
  const auto int_result = run(desc);
  desc.combine = CombineClass::kFloatCas;
  const auto float_result = run(desc);
  EXPECT_GT(float_result.duration(), int_result.duration());
}

TEST_F(GpuDeviceTest, LaunchWhileBusyRejected) {
  const auto desc = explicit_kernel(1 << 20, 1024, 256, 1, 4);
  device_.launch(desc, nullptr);
  EXPECT_TRUE(device_.busy());
  EXPECT_THROW(device_.launch(desc, nullptr), Error);
  sim_.run();
  EXPECT_FALSE(device_.busy());
}

TEST_F(GpuDeviceTest, EmptyKernelsRejected) {
  auto desc = explicit_kernel(1 << 20, 0, 256, 1, 4);
  EXPECT_THROW(device_.launch(desc, nullptr), Error);
  desc = explicit_kernel(0, 16, 256, 1, 4);
  EXPECT_THROW(device_.launch(desc, nullptr), Error);
}

TEST_F(GpuDeviceTest, ManagedKernelReadsRemoteWhenColdAndMigrates) {
  const Bytes bytes = 64 * kMiB;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kLpddr, "in");
  KernelDesc desc = explicit_kernel(bytes / 4, 4096, 256, 4, 4);
  desc.input = InputLocation::kManaged;
  desc.managed_alloc = alloc;
  const auto cold = run(desc);
  EXPECT_EQ(cold.remote_bytes, bytes);
  // Fault-eager default: after the first pass the pages live in HBM.
  EXPECT_EQ(um_.resident_bytes(alloc, mem::RegionId::kHbm), bytes);
  const auto warm = run(desc);
  EXPECT_EQ(warm.remote_bytes, 0);
  EXPECT_LT(warm.duration(), cold.duration());
}

TEST_F(GpuDeviceTest, ManagedWarmSlowerThanExplicit) {
  const Bytes bytes = 64 * kMiB;
  const auto alloc = um_.allocate(bytes, mem::RegionId::kHbm, "in");
  KernelDesc managed = explicit_kernel(bytes / 4, 8192, 256, 4, 4);
  managed.input = InputLocation::kManaged;
  managed.managed_alloc = alloc;
  const auto um_result = run(managed);
  const auto explicit_result =
      run(explicit_kernel(bytes / 4, 8192, 256, 4, 4));
  EXPECT_GT(um_result.duration(), explicit_result.duration());
}

TEST_F(GpuDeviceTest, StatsCountKernelsWavesCombines) {
  const auto before = device_.stats();
  const auto combines_before = device_.combine_unit().completed();
  run(explicit_kernel(1 << 22, 4224, 256, 1, 4));
  const auto& after = device_.stats();
  EXPECT_EQ(after.kernels_launched, before.kernels_launched + 1);
  // 4224 CTAs / 1056 resident = 4 waves.
  EXPECT_EQ(after.waves_executed, before.waves_executed + 4);
  EXPECT_EQ(device_.combine_unit().completed(), combines_before + 4224);
}

TEST_F(GpuDeviceTest, DeterministicAcrossIdenticalRuns) {
  const auto desc = explicit_kernel(1 << 24, 2048, 256, 4, 4);
  const auto a = run(desc);
  const auto b = run(desc);
  EXPECT_EQ(a.duration(), b.duration());
}

TEST_F(GpuDeviceTest, CombineStrategiesOrderAsExpectedAtHugeGrids) {
  const std::int64_t grid = 1 << 20;
  auto desc = explicit_kernel(grid * 128, grid, 128, 1, 4);

  desc.strategy = CombineStrategy::kAtomicPerCta;
  const auto per_cta = run(desc);
  desc.strategy = CombineStrategy::kAtomicPerWarp;
  const auto per_warp = run(desc);
  desc.strategy = CombineStrategy::kTwoKernel;
  const auto two_kernel = run(desc);

  // Per-warp issues 4x the combines of per-CTA (128 threads = 4 warps);
  // the two-kernel scheme avoids serialized combines entirely.
  EXPECT_GT(per_warp.duration(), per_cta.duration() * 3);
  EXPECT_LT(two_kernel.duration(), per_cta.duration() / 2);
}

TEST_F(GpuDeviceTest, CombineStrategiesTieAtTunedGrids) {
  auto desc = explicit_kernel(1 << 26, 16384, 256, 4, 4);
  desc.strategy = CombineStrategy::kAtomicPerCta;
  const auto per_cta = run(desc);
  desc.strategy = CombineStrategy::kTwoKernel;
  const auto two_kernel = run(desc);
  // Within a few percent: the input stream dominates; the second kernel
  // only adds a launch.
  EXPECT_NEAR(static_cast<double>(two_kernel.duration()) /
                  static_cast<double>(per_cta.duration()),
              1.0, 0.05);
}

TEST_F(GpuDeviceTest, TwoKernelIssuesNoSerializedCombines) {
  auto desc = explicit_kernel(1 << 22, 4096, 256, 4, 4);
  desc.strategy = CombineStrategy::kTwoKernel;
  const auto before = device_.combine_unit().completed();
  run(desc);
  EXPECT_EQ(device_.combine_unit().completed(), before);
}

TEST_F(GpuDeviceTest, StrategyNames) {
  EXPECT_STREQ(combine_strategy_name(CombineStrategy::kAtomicPerCta),
               "atomic-per-cta");
  EXPECT_STREQ(combine_strategy_name(CombineStrategy::kAtomicPerWarp),
               "atomic-per-warp");
  EXPECT_STREQ(combine_strategy_name(CombineStrategy::kTwoKernel),
               "two-kernel");
}

TEST_F(GpuDeviceTest, Int8StreamsSlowerThanInt32AtSmallGrids) {
  // Same bytes, 1-byte elements: the per-load footprint is 4x narrower, so
  // at a latency-bound grid (128 CTAs) int8 reaches ~1/4 the bandwidth.
  const Bytes bytes = 256 * kMiB;
  const auto int32 = run(explicit_kernel(bytes / 4, 128, 256, 4, 4));
  const auto int8 = run(explicit_kernel(bytes, 128, 256, 4, 1));
  EXPECT_GT(int32.bandwidth().gbps(), int8.bandwidth().gbps() * 3.0);
  EXPECT_LT(int32.bandwidth().gbps(), int8.bandwidth().gbps() * 5.0);
}

}  // namespace
}  // namespace ghs::gpu
