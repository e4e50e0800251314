#include "ghs/omp/runtime.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "ghs/core/platform.hpp"
#include "ghs/util/error.hpp"

namespace ghs::omp {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  core::Platform platform;
  Runtime& rt = platform.runtime();

  OffloadLoop loop(std::int64_t iterations, int v = 1) {
    OffloadLoop l;
    l.label = "loop";
    l.iterations = iterations;
    l.v = v;
    l.element_size = 4;
    return l;
  }
};

TEST_F(RuntimeTest, LoweringAppliesHeuristicWithoutClauses) {
  const auto desc = rt.lower(loop(1'048'576'000), TeamsClauses{});
  EXPECT_EQ(desc.grid, 8'192'000);
  EXPECT_EQ(desc.threads_per_cta, 128);
  EXPECT_EQ(desc.v, 1);
}

TEST_F(RuntimeTest, LoweringHonoursClauses) {
  TeamsClauses clauses;
  clauses.num_teams = 16384;
  clauses.thread_limit = 256;
  const auto desc = rt.lower(loop(262'144'000, 4), clauses);
  EXPECT_EQ(desc.grid, 16384);
  EXPECT_EQ(desc.threads_per_cta, 256);
  EXPECT_EQ(desc.elements, 1'048'576'000);
}

TEST_F(RuntimeTest, GridNeverExceedsIterations) {
  TeamsClauses clauses;
  clauses.num_teams = 1'000'000;
  const auto desc = rt.lower(loop(1000), clauses);
  EXPECT_EQ(desc.grid, 1000);
}

TEST_F(RuntimeTest, LoweringValidatesInput) {
  EXPECT_THROW(rt.lower(loop(0), TeamsClauses{}), Error);
  TeamsClauses bad_teams;
  bad_teams.num_teams = 0;
  EXPECT_THROW(rt.lower(loop(100), bad_teams), Error);
  TeamsClauses bad_threads;
  bad_threads.thread_limit = 100;  // not a warp multiple
  EXPECT_THROW(rt.lower(loop(100), bad_threads), Error);
}

TEST_F(RuntimeTest, DefaultGridMatchesPaperProfile) {
  EXPECT_EQ(rt.default_grid(1'048'576'000), 8'192'000);
  EXPECT_EQ(rt.default_grid(4'194'304'000), 0xFFFFFF);
}

TEST_F(RuntimeTest, ScalarUpdateTakesLatency) {
  bool fired = false;
  rt.target_update_scalar([&] { fired = true; });
  platform.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(platform.sim().now(),
            platform.config().omp.scalar_update_latency);
}

TEST_F(RuntimeTest, MapToCopiesOverTheLink) {
  const auto buf = rt.target_alloc(450'000'000, "in");
  bool done = false;
  rt.map_to(buf, [&] { done = true; });
  platform.run();
  EXPECT_TRUE(done);
  // 0.45 GB over 450 GB/s C2C = 1 ms.
  EXPECT_NEAR(static_cast<double>(platform.sim().now()), 1e9, 1e7);
}

TEST_F(RuntimeTest, TargetReduceDeliversKernelResult) {
  std::optional<gpu::KernelResult> result;
  rt.target_teams_reduce(loop(1 << 22), TeamsClauses{},
                         [&](const gpu::KernelResult& r) { result = r; });
  platform.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->bytes, (1LL << 22) * 4);
}

TEST_F(RuntimeTest, CoExecuteRunsBothSides) {
  const Bytes bytes = 400 * kMiB;
  const auto alloc =
      platform.um().allocate(bytes, mem::RegionId::kLpddr, "in");
  OffloadLoop gpu_loop = loop(bytes / 8, 1);
  gpu_loop.unified = true;
  gpu_loop.managed_alloc = alloc;
  gpu_loop.range_offset = bytes / 2;

  cpu::CpuReduceRequest cpu_part;
  cpu_part.label = "host";
  cpu_part.elements = bytes / 8;
  cpu_part.element_size = 4;
  cpu_part.threads = 72;
  cpu_part.managed = true;
  cpu_part.managed_alloc = alloc;

  std::optional<CoExecResult> result;
  rt.parallel_co_execute(gpu_loop, TeamsClauses{}, cpu_part,
                         [&](const CoExecResult& r) { result = r; });
  platform.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->gpu.has_value());
  ASSERT_TRUE(result->cpu.has_value());
  // The region ends at the slower of the two parts plus the join barrier.
  EXPECT_GE(result->end, result->gpu->end);
  EXPECT_GE(result->end, result->cpu->end);
}

TEST_F(RuntimeTest, CoExecuteGpuOnlyAndCpuOnly) {
  std::optional<CoExecResult> gpu_only;
  rt.parallel_co_execute(loop(1 << 20), TeamsClauses{}, std::nullopt,
                         [&](const CoExecResult& r) { gpu_only = r; });
  platform.run();
  ASSERT_TRUE(gpu_only.has_value());
  EXPECT_TRUE(gpu_only->gpu.has_value());
  EXPECT_FALSE(gpu_only->cpu.has_value());

  cpu::CpuReduceRequest cpu_part;
  cpu_part.label = "host";
  cpu_part.elements = 1 << 20;
  cpu_part.element_size = 4;
  cpu_part.threads = 72;
  std::optional<CoExecResult> cpu_only;
  rt.parallel_co_execute(std::nullopt, TeamsClauses{}, cpu_part,
                         [&](const CoExecResult& r) { cpu_only = r; });
  platform.run();
  ASSERT_TRUE(cpu_only.has_value());
  EXPECT_FALSE(cpu_only->gpu.has_value());
  EXPECT_TRUE(cpu_only->cpu.has_value());
}

TEST_F(RuntimeTest, CoExecuteWithNeitherSideRejected) {
  EXPECT_THROW(
      rt.parallel_co_execute(std::nullopt, TeamsClauses{}, std::nullopt,
                             nullptr),
      Error);
}

TEST_F(RuntimeTest, LoweringPropagatesStrategyAndStreams) {
  OffloadLoop l = loop(1 << 20, 4);
  l.strategy = gpu::CombineStrategy::kTwoKernel;
  l.input_streams = 2;
  const auto desc = rt.lower(l, TeamsClauses{});
  EXPECT_EQ(desc.strategy, gpu::CombineStrategy::kTwoKernel);
  EXPECT_EQ(desc.input_streams, 2);
  // 2^20 iterations x v=4 elements x 4 B x 2 streams.
  EXPECT_EQ(desc.total_bytes(), (1LL << 20) * 4 * 4 * 2);
}

TEST_F(RuntimeTest, MultiStreamUnifiedLoopRejected) {
  OffloadLoop l = loop(1 << 20);
  l.unified = true;
  l.input_streams = 2;
  EXPECT_THROW(rt.lower(l, TeamsClauses{}), Error);
}

TEST_F(RuntimeTest, BadDeviceBufferRejected) {
  EXPECT_THROW(rt.target_alloc(0, "zero"), Error);
  EXPECT_THROW(rt.map_to(99, nullptr), Error);
}

}  // namespace
}  // namespace ghs::omp
