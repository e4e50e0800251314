#include "ghs/core/platform.hpp"

#include <gtest/gtest.h>

#include "ghs/core/system_config.hpp"

namespace ghs::core {
namespace {

TEST(PlatformTest, BootsWithGh200Defaults) {
  Platform platform;
  EXPECT_EQ(platform.sim().now(), 0);
  EXPECT_DOUBLE_EQ(
      platform.topology().network().capacity(platform.topology().hbm())
          .gbps(),
      4022.7);
  EXPECT_EQ(platform.gpu().config().num_sms, 132);
  EXPECT_EQ(platform.cpu().config().cores, 72);
  EXPECT_EQ(platform.config().omp.heuristic.grid_clamp, 0xFFFFFF);
}

TEST(PlatformTest, ConfigPropagatesToSubsystems) {
  SystemConfig config = gh200_config();
  config.topology.hbm_bw = Bandwidth::from_gbps(1000.0);
  config.gpu.num_sms = 64;
  config.cpu.cores = 16;
  config.um.page_size = 1 * kMiB;
  Platform platform(config);
  EXPECT_DOUBLE_EQ(
      platform.topology().network().capacity(platform.topology().hbm())
          .gbps(),
      1000.0);
  EXPECT_EQ(platform.gpu().config().num_sms, 64);
  EXPECT_EQ(platform.cpu().config().cores, 16);
  EXPECT_EQ(platform.um().policy().page_size, 1 * kMiB);
}

TEST(PlatformTest, PeakBandwidthHelper) {
  EXPECT_DOUBLE_EQ(peak_gpu_bandwidth(gh200_config()).gbps(), 4022.7);
}

TEST(PlatformTest, RunDrainsScheduledWork) {
  Platform platform;
  int fired = 0;
  platform.sim().schedule_after(kMillisecond, [&] { ++fired; });
  platform.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(platform.sim().now(), kMillisecond);
}

TEST(PlatformTest, IndependentPlatformsShareNothing) {
  Platform a;
  Platform b;
  a.sim().schedule_after(10, [] {});
  a.run();
  EXPECT_EQ(a.sim().now(), 10);
  EXPECT_EQ(b.sim().now(), 0);
  const auto alloc = a.um().allocate(kMiB, mem::RegionId::kLpddr, "x");
  EXPECT_EQ(a.um().resident_bytes(alloc, mem::RegionId::kLpddr), kMiB);
  // b's manager has no allocation 0.
  EXPECT_THROW(b.um().size(alloc), Error);
}

}  // namespace
}  // namespace ghs::core
