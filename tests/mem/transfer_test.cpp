#include "ghs/mem/topology.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::mem {
namespace {

class TransferTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  Topology topo{sim, TopologyConfig{}};
};

TEST_F(TransferTest, CopyIsLinkBound) {
  // 4.5 GB over the 450 GB/s C2C lane takes 10 ms (HBM and LPDDR are
  // wider, so the link binds).
  SimTime done = -1;
  topo.copy(4'500'000'000, RegionId::kLpddr, RegionId::kHbm,
              [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), 10e9, 1e7);
}

TEST_F(TransferTest, MigrationIsEngineBound) {
  // The migration engine (250 GB/s) is narrower than the link.
  SimTime done = -1;
  topo.migrate(2'500'000'000, RegionId::kLpddr, RegionId::kHbm,
                 [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), 10e9, 1e7);
}

TEST_F(TransferTest, ZeroByteCopyCompletesInline) {
  bool called = false;
  topo.copy(0, RegionId::kLpddr, RegionId::kHbm, [&] { called = true; });
  EXPECT_TRUE(called);
  EXPECT_EQ(sim.now(), 0);
}

TEST_F(TransferTest, NegativeBytesRejected) {
  EXPECT_THROW(topo.copy(-1, RegionId::kLpddr, RegionId::kHbm, nullptr),
               Error);
}

TEST_F(TransferTest, ZeroByteCopyNotCounted) {
  topo.copy(0, RegionId::kLpddr, RegionId::kHbm, nullptr);
  EXPECT_EQ(topo.network().active_flows(), 0u);
}

TEST_F(TransferTest, ConcurrentCopiesShareTheLink) {
  SimTime done_a = -1;
  SimTime done_b = -1;
  topo.copy(450'000'000, RegionId::kLpddr, RegionId::kHbm,
              [&] { done_a = sim.now(); });
  topo.copy(450'000'000, RegionId::kLpddr, RegionId::kHbm,
              [&] { done_b = sim.now(); });
  sim.run();
  // Two 0.45 GB copies over a 450 GB/s lane: 2 ms total when shared.
  EXPECT_NEAR(static_cast<double>(done_a), 2e9, 1e7);
  EXPECT_NEAR(static_cast<double>(done_b), 2e9, 1e7);
}

TEST_F(TransferTest, OppositeDirectionsContendOnMemoriesNotLink) {
  SimTime done_up = -1;
  SimTime done_down = -1;
  topo.copy(450'000'000, RegionId::kLpddr, RegionId::kHbm,
              [&] { done_up = sim.now(); });
  topo.copy(450'000'000, RegionId::kHbm, RegionId::kLpddr,
              [&] { done_down = sim.now(); });
  sim.run();
  // Each direction has its own C2C lane, but both copies read and write
  // the two memories: LPDDR (500 GB/s) fair-shares at 250 GB/s per copy,
  // so each 0.45 GB copy takes 1.8 ms.
  EXPECT_NEAR(static_cast<double>(done_up), 1.8e9, 2e7);
  EXPECT_NEAR(static_cast<double>(done_down), 1.8e9, 2e7);
}

}  // namespace
}  // namespace ghs::mem
