// Router policies: parsing, tenant affinity, least-loaded selection, and
// the power-of-two-choices load-spread property.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ghs/cluster/router.hpp"
#include "ghs/util/error.hpp"

namespace ghs::cluster {
namespace {

serve::Job tenant_job(std::int64_t tenant) {
  serve::Job job;
  job.id = tenant * 1000;
  job.tenant = tenant;
  return job;
}

TEST(RouterPolicy, ParseAndNameRoundTrip) {
  for (const auto policy :
       {RouterPolicy::kHash, RouterPolicy::kLeast, RouterPolicy::kP2c}) {
    EXPECT_EQ(parse_router_policy(router_policy_name(policy)), policy);
  }
  EXPECT_THROW(parse_router_policy("round-robin"), Error);
}

TEST(Router, HashIsTenantStickyAndLoadBlind) {
  Router router(RouterPolicy::kHash, 1);
  for (int n = 0; n < 8; ++n) router.add_node(n);
  std::set<int> seen;
  for (std::int64_t tenant = 0; tenant < 64; ++tenant) {
    const int first = router.pick(tenant_job(tenant), {0, 0, 0, 0, 0, 0, 0, 0});
    const int second =
        router.pick(tenant_job(tenant), {9, 9, 9, 9, 9, 9, 9, 9});
    EXPECT_EQ(first, second) << "tenant " << tenant;
    seen.insert(first);
  }
  EXPECT_GT(seen.size(), 4u);
}

TEST(Router, LeastPicksArgminLowestIndexOnTies) {
  Router router(RouterPolicy::kLeast, 1);
  EXPECT_EQ(router.pick(tenant_job(0), {3, 1, 2, 1}), 1);
  EXPECT_EQ(router.pick(tenant_job(0), {2, 2, 2}), 0);
}

TEST(Router, P2cIsDeterministicAtASeed) {
  Router a(RouterPolicy::kP2c, 99);
  Router b(RouterPolicy::kP2c, 99);
  std::vector<std::size_t> loads(16, 0);
  for (int i = 0; i < 1000; ++i) {
    const int pick_a = a.pick(tenant_job(i), loads);
    const int pick_b = b.pick(tenant_job(i), loads);
    ASSERT_EQ(pick_a, pick_b) << "draw " << i;
    ++loads[static_cast<std::size_t>(pick_a)];
  }
}

// The Mitzenmacher property: choosing the less loaded of two random nodes
// keeps the bins near-balanced, while a single random choice drifts.
// Balls-in-bins with the router as the ball placer; loads are the bin
// counts, so the router sees exact occupancy like the cluster does.
TEST(Router, P2cSpreadsLoadFarBetterThanOneRandomChoice) {
  constexpr int kBalls = 16000;
  constexpr std::size_t kBins = 16;

  Router p2c(RouterPolicy::kP2c, 7);
  std::vector<std::size_t> p2c_loads(kBins, 0);
  for (int i = 0; i < kBalls; ++i) {
    ++p2c_loads[static_cast<std::size_t>(p2c.pick(tenant_job(i), p2c_loads))];
  }

  Rng random(7);
  std::vector<std::size_t> random_loads(kBins, 0);
  for (int i = 0; i < kBalls; ++i) {
    ++random_loads[random.next_below(kBins)];
  }

  const auto spread = [](const std::vector<std::size_t>& loads) {
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    return *hi - *lo;
  };
  // Two informed choices keep bins within a handful of balls of each
  // other; one blind choice wanders by O(sqrt(n)) — dozens of balls here.
  EXPECT_LE(spread(p2c_loads), 8u);
  EXPECT_GT(spread(random_loads), spread(p2c_loads));
  for (const std::size_t count : p2c_loads) EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace ghs::cluster
