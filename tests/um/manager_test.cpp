#include "ghs/um/manager.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::um {
namespace {

constexpr Bytes kPage = 2 * kMiB;

class UmManagerTest : public ::testing::Test {
 protected:
  UmManagerTest() { policy_.page_size = kPage; }

  UmManager make(MigrationMode mode, int gpu_threshold = 2,
                 int cpu_threshold = 0) {
    policy_.mode = mode;
    policy_.gpu_access_threshold = gpu_threshold;
    policy_.cpu_access_threshold = cpu_threshold;
    return UmManager(topo_, policy_);
  }

  sim::Simulator sim_;
  mem::Topology topo_{sim_, mem::TopologyConfig{}};
  UmPolicy policy_;
};

TEST_F(UmManagerTest, FirstTouchPlacesAllPages) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(10 * kPage, mem::RegionId::kLpddr, "a");
  EXPECT_EQ(um.size(id), 10 * kPage);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr), 10 * kPage);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 0);
}

TEST_F(UmManagerTest, PartialLastPageAccounted) {
  auto um = make(MigrationMode::kNone);
  const Bytes size = 3 * kPage + 1000;
  const auto id = um.allocate(size, mem::RegionId::kLpddr, "a");
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr), size);
}

TEST_F(UmManagerTest, PlanIsOneLocalSegmentWhenResident) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(8 * kPage, mem::RegionId::kHbm, "a");
  const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 8 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].offset, 0);
  EXPECT_EQ(plan[0].length, 8 * kPage);
  EXPECT_EQ(plan[0].source, mem::RegionId::kHbm);
  EXPECT_FALSE(plan[0].migrate_on_access);
}

TEST_F(UmManagerTest, ModeNoneServesRemoteForever) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  for (int pass = 0; pass < 5; ++pass) {
    const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].source, mem::RegionId::kLpddr);
    EXPECT_FALSE(plan[0].migrate_on_access);
  }
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 0);
  EXPECT_EQ(um.stats().remote_bytes_gpu, 5 * 4 * kPage);
}

TEST_F(UmManagerTest, FaultEagerMigratesOnFirstGpuTouch) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].migrate_on_access);
  EXPECT_EQ(plan[0].source, mem::RegionId::kLpddr);
  EXPECT_GT(plan[0].rate_cap, 0.0);

  // The device reports the segment's flow completion; pages flip.
  um.complete_segment(id, plan[0].offset, plan[0].length,
                      mem::RegionId::kHbm);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 4 * kPage);

  // Next pass is fully local.
  const auto plan2 = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
  ASSERT_EQ(plan2.size(), 1u);
  EXPECT_EQ(plan2[0].source, mem::RegionId::kHbm);
  EXPECT_FALSE(plan2[0].migrate_on_access);
}

TEST_F(UmManagerTest, FaultEagerDoesNotDoubleMigrate) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kLpddr, "a");
  const auto plan1 = um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  ASSERT_TRUE(plan1[0].migrate_on_access);
  // Second pass before the flip reports in: serves remote, no re-migrate.
  const auto plan2 = um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  ASSERT_EQ(plan2.size(), 1u);
  EXPECT_FALSE(plan2[0].migrate_on_access);
  EXPECT_EQ(plan2[0].source, mem::RegionId::kLpddr);
}

TEST_F(UmManagerTest, CpuTouchDoesNotFaultMigrate) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kHbm, "a");
  const auto plan = um.plan_pass(id, Accessor::kCpu, 0, 2 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].source, mem::RegionId::kHbm);
  EXPECT_FALSE(plan[0].migrate_on_access);
  EXPECT_EQ(um.stats().remote_bytes_cpu, 2 * kPage);
}

TEST_F(UmManagerTest, AccessCounterMigratesAfterThreshold) {
  auto um = make(MigrationMode::kAccessCounter, /*gpu_threshold=*/3);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  for (int pass = 0; pass < 2; ++pass) {
    const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
    EXPECT_FALSE(plan[0].migrate_on_access);
    EXPECT_EQ(um.stats().counter_migrations, 0);
  }
  // Third pass crosses the threshold: background migration queued.
  um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
  EXPECT_EQ(um.stats().counter_migrations, 1);
  sim_.run();  // migration flow drains, pages flip
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 4 * kPage);
  EXPECT_EQ(um.stats().bytes_migrated_to_hbm, 4 * kPage);
}

TEST_F(UmManagerTest, CpuMigrateBackWhenEnabled) {
  auto um = make(MigrationMode::kAccessCounter, /*gpu_threshold=*/100,
                 /*cpu_threshold=*/2);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kHbm, "a");
  um.plan_pass(id, Accessor::kCpu, 0, 4 * kPage);
  EXPECT_EQ(um.stats().counter_migrations, 0);
  um.plan_pass(id, Accessor::kCpu, 0, 4 * kPage);
  EXPECT_EQ(um.stats().counter_migrations, 1);
  sim_.run();
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr), 4 * kPage);
  EXPECT_EQ(um.stats().bytes_migrated_to_lpddr, 4 * kPage);
}

TEST_F(UmManagerTest, CpuMigrateBackDisabledByDefaultPolicy) {
  auto um = make(MigrationMode::kFaultEager, 2, /*cpu_threshold=*/0);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kHbm, "a");
  for (int pass = 0; pass < 50; ++pass) {
    um.plan_pass(id, Accessor::kCpu, 0, 4 * kPage);
  }
  EXPECT_EQ(um.stats().counter_migrations, 0);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 4 * kPage);
}

TEST_F(UmManagerTest, MixedResidencySplitsIntoSegments) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(6 * kPage, mem::RegionId::kLpddr, "a");
  // Move the middle two pages to HBM.
  um.complete_segment(id, 2 * kPage, 2 * kPage, mem::RegionId::kHbm);
  const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 6 * kPage);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].source, mem::RegionId::kLpddr);
  EXPECT_EQ(plan[0].length, 2 * kPage);
  EXPECT_EQ(plan[1].source, mem::RegionId::kHbm);
  EXPECT_EQ(plan[1].length, 2 * kPage);
  EXPECT_EQ(plan[2].source, mem::RegionId::kLpddr);
  EXPECT_EQ(plan[2].length, 2 * kPage);
}

TEST_F(UmManagerTest, SubRangePassOnlyTouchesItsPages) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(8 * kPage, mem::RegionId::kLpddr, "a");
  const auto plan =
      um.plan_pass(id, Accessor::kGpu, 4 * kPage, 4 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].offset, 4 * kPage);
  um.complete_segment(id, 4 * kPage, 4 * kPage, mem::RegionId::kHbm);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 4 * kPage);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr, 0, 4 * kPage),
            4 * kPage);
}

TEST_F(UmManagerTest, UnalignedRangeSplitsAtPageBoundary) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  um.complete_segment(id, 0, kPage, mem::RegionId::kHbm);
  // Range straddling the residency boundary mid-page-1.
  const auto plan =
      um.plan_pass(id, Accessor::kGpu, kPage / 2, kPage);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].source, mem::RegionId::kHbm);
  EXPECT_EQ(plan[0].length, kPage / 2);
  EXPECT_EQ(plan[1].source, mem::RegionId::kLpddr);
  EXPECT_EQ(plan[1].length, kPage / 2);
}

TEST_F(UmManagerTest, FreeInvalidatesAllocation) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(kPage, mem::RegionId::kLpddr, "a");
  um.free(id);
  EXPECT_THROW(um.size(id), Error);
  EXPECT_THROW(um.plan_pass(id, Accessor::kGpu, 0, kPage), Error);
}

TEST_F(UmManagerTest, CompleteSegmentAfterFreeIsIgnored) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(kPage, mem::RegionId::kLpddr, "a");
  um.free(id);
  EXPECT_NO_THROW(um.complete_segment(id, 0, kPage, mem::RegionId::kHbm));
}

TEST_F(UmManagerTest, RangeValidation) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kLpddr, "a");
  EXPECT_THROW(um.plan_pass(id, Accessor::kGpu, 0, 3 * kPage), Error);
  EXPECT_THROW(um.plan_pass(id, Accessor::kGpu, -1, kPage), Error);
  EXPECT_TRUE(um.plan_pass(id, Accessor::kGpu, 0, 0).empty());
}

TEST_F(UmManagerTest, PrefetchMovesPendingPages) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(8 * kPage, mem::RegionId::kLpddr, "a");
  bool done = false;
  const Bytes queued = um.prefetch(id, 0, 8 * kPage, mem::RegionId::kHbm,
                                   [&] { done = true; });
  EXPECT_EQ(queued, 8 * kPage);
  EXPECT_FALSE(done);  // the migration flow has to drain first
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 8 * kPage);
}

TEST_F(UmManagerTest, PrefetchIsNoOpWhenAlreadyResident) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kHbm, "a");
  bool done = false;
  const Bytes queued = um.prefetch(id, 0, 4 * kPage, mem::RegionId::kHbm,
                                   [&] { done = true; });
  EXPECT_EQ(queued, 0);
  EXPECT_TRUE(done);  // completes inline
}

TEST_F(UmManagerTest, PrefetchSubRangeLeavesRestAlone) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(8 * kPage, mem::RegionId::kLpddr, "a");
  um.prefetch(id, 4 * kPage, 4 * kPage, mem::RegionId::kHbm, nullptr);
  sim_.run();
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 4 * kPage);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr, 0, 4 * kPage),
            4 * kPage);
}

TEST_F(UmManagerTest, ZeroLengthPrefetchMovesNothing) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  bool done = false;
  // An unaligned empty range overlaps no page.
  const Bytes queued =
      um.prefetch(id, 1000, 0, mem::RegionId::kHbm, [&] { done = true; });
  EXPECT_EQ(queued, 0);
  EXPECT_TRUE(done);  // completes inline
  EXPECT_EQ(topo_.network().active_flows(), 0u);
  sim_.run();
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 0);
  EXPECT_EQ(um.stats().bytes_migrated_to_hbm, 0);
}

TEST_F(UmManagerTest, ZeroLengthCompletionChangesNothing) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(6 * kPage, mem::RegionId::kLpddr, "a");
  um.advise_read_mostly(id);
  um.complete_segment(id, 3 * kPage + 5, 0, mem::RegionId::kHbm);
  um.complete_duplication(id, 3 * kPage + 5, 0);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 0);
  EXPECT_EQ(um.stats().bytes_migrated_to_hbm, 0);
  EXPECT_EQ(um.duplicated_bytes(id), 0);
  EXPECT_EQ(um.stats().bytes_duplicated, 0);
}

TEST_F(UmManagerTest, PrefetchHandlesMixedSources) {
  auto um = make(MigrationMode::kNone);
  const auto id = um.allocate(6 * kPage, mem::RegionId::kLpddr, "a");
  um.complete_segment(id, 2 * kPage, 2 * kPage, mem::RegionId::kHbm);
  // Pull everything to LPDDR: only the HBM-resident middle moves.
  const Bytes queued =
      um.prefetch(id, 0, 6 * kPage, mem::RegionId::kLpddr, nullptr);
  EXPECT_EQ(queued, 2 * kPage);
  sim_.run();
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr), 6 * kPage);
}

TEST_F(UmManagerTest, PrefetchResetsAccessCounters) {
  auto um = make(MigrationMode::kAccessCounter, /*gpu_threshold=*/3);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kLpddr, "a");
  um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  um.prefetch(id, 0, 2 * kPage, mem::RegionId::kHbm, nullptr);
  sim_.run();
  // Counters were reset by the residency flip; the next remote-side pass
  // (after moving back) starts counting from zero.
  um.prefetch(id, 0, 2 * kPage, mem::RegionId::kLpddr, nullptr);
  sim_.run();
  um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  EXPECT_EQ(um.stats().counter_migrations, 0);
}

TEST_F(UmManagerTest, ReadMostlyDuplicatesInsteadOfMigrating) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(4 * kPage, mem::RegionId::kLpddr, "a");
  um.advise_read_mostly(id);
  EXPECT_TRUE(um.read_mostly(id));

  const auto plan = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].duplicate_on_access);
  EXPECT_FALSE(plan[0].migrate_on_access);
  EXPECT_GT(plan[0].rate_cap, 0.0);

  um.complete_duplication(id, 0, 4 * kPage);
  // Home copy stays in LPDDR; a replica now exists.
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kLpddr), 4 * kPage);
  EXPECT_EQ(um.duplicated_bytes(id), 4 * kPage);
  EXPECT_EQ(um.stats().bytes_duplicated, 4 * kPage);

  // Both processors now read locally.
  const auto gpu_plan = um.plan_pass(id, Accessor::kGpu, 0, 4 * kPage);
  EXPECT_EQ(gpu_plan[0].source, mem::RegionId::kHbm);
  EXPECT_FALSE(gpu_plan[0].duplicate_on_access);
  const auto cpu_plan = um.plan_pass(id, Accessor::kCpu, 0, 4 * kPage);
  EXPECT_EQ(cpu_plan[0].source, mem::RegionId::kLpddr);
}

TEST_F(UmManagerTest, ReadMostlyCpuSideAlsoDuplicates) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kHbm, "a");
  um.advise_read_mostly(id);
  const auto plan = um.plan_pass(id, Accessor::kCpu, 0, 2 * kPage);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].duplicate_on_access);
  EXPECT_EQ(plan[0].source, mem::RegionId::kHbm);
}

TEST_F(UmManagerTest, PrefetchCollapsesReplicas) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(2 * kPage, mem::RegionId::kLpddr, "a");
  um.advise_read_mostly(id);
  um.plan_pass(id, Accessor::kGpu, 0, 2 * kPage);
  um.complete_duplication(id, 0, 2 * kPage);
  EXPECT_EQ(um.duplicated_bytes(id), 2 * kPage);
  um.prefetch(id, 0, 2 * kPage, mem::RegionId::kHbm, nullptr);
  sim_.run();
  EXPECT_EQ(um.duplicated_bytes(id), 0);
  EXPECT_EQ(um.resident_bytes(id, mem::RegionId::kHbm), 2 * kPage);
}

TEST_F(UmManagerTest, DuplicationNotDoubleCharged) {
  auto um = make(MigrationMode::kFaultEager);
  const auto id = um.allocate(kPage, mem::RegionId::kLpddr, "a");
  um.advise_read_mostly(id);
  um.plan_pass(id, Accessor::kGpu, 0, kPage);
  // Second pass before the replica lands: served remotely, no re-issue.
  const auto plan = um.plan_pass(id, Accessor::kGpu, 0, kPage);
  EXPECT_FALSE(plan[0].duplicate_on_access);
  um.complete_duplication(id, 0, kPage);
  um.complete_duplication(id, 0, kPage);  // idempotent
  EXPECT_EQ(um.stats().bytes_duplicated, kPage);
}

TEST_F(UmManagerTest, BadPolicyRejected) {
  policy_.gpu_access_threshold = 0;
  EXPECT_THROW(UmManager(topo_, policy_), Error);
}

}  // namespace
}  // namespace ghs::um
