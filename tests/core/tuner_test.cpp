#include "ghs/core/tuner.hpp"

#include "ghs/core/sweep.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::core {
namespace {

using workload::CaseId;

TunerOptions fast_options() {
  TunerOptions options;
  options.elements = 1 << 24;
  options.iterations = 2;
  return options;
}

TEST(TunerTest, FindsANearOptimalConfiguration) {
  const auto options = fast_options();
  const auto tuned = tune_reduction(CaseId::kC1, options);

  // Exhaustive reference over the same lattice (thread_limit pinned).
  SweepOptions sweep;
  sweep.elements = options.elements;
  sweep.iterations = options.iterations;
  const auto rows = table1({CaseId::kC1}, sweep);
  EXPECT_GE(tuned.best_gbps, rows.front().optimized_gbps * 0.98)
      << "hill climb landed more than 2% below the exhaustive optimum";
}

TEST(TunerTest, UsesFarFewerProbesThanTheSweep) {
  const auto tuned = tune_reduction(CaseId::kC1, fast_options());
  // The paper's sweep is 61 valid (teams, V) points.
  EXPECT_LT(tuned.evaluations(), 30u);
  EXPECT_GE(tuned.evaluations(), 3u);
}

TEST(TunerTest, RespectsBounds) {
  const auto tuned = tune_reduction(CaseId::kC3, fast_options());
  for (const auto& probe : tuned.probes) {
    EXPECT_GE(probe.tuning.teams, 128);
    EXPECT_LE(probe.tuning.teams, 65536);
    EXPECT_TRUE(is_pow2(probe.tuning.teams));
    EXPECT_GE(probe.tuning.v, 1);
    EXPECT_LE(probe.tuning.v, 32);
    EXPECT_TRUE(is_pow2(probe.tuning.v));
    EXPECT_EQ(probe.tuning.teams % probe.tuning.v, 0);
    EXPECT_EQ(probe.tuning.thread_limit, 256);
  }
}

TEST(TunerTest, MaxProbesCapsTheSearch) {
  TunerOptions options = fast_options();
  options.max_probes = 5;
  const auto tuned = tune_reduction(CaseId::kC2, options);
  EXPECT_LE(tuned.evaluations(), 5u);
  EXPECT_GT(tuned.best_gbps, 0.0);
}

TEST(TunerTest, BestIsMaxOverProbes) {
  const auto tuned = tune_reduction(CaseId::kC4, fast_options());
  double max_seen = 0.0;
  for (const auto& probe : tuned.probes) {
    max_seen = std::max(max_seen, probe.gbps);
  }
  EXPECT_DOUBLE_EQ(tuned.best_gbps, max_seen);
}

TEST(TunerTest, InvalidSeedsRejected) {
  const auto options = fast_options();
  ReduceTuning off_lattice;
  off_lattice.teams = 3000;
  EXPECT_THROW(tune_reduction(CaseId::kC1, off_lattice, options), Error);
  ReduceTuning out_of_bounds;
  out_of_bounds.teams = 1 << 20;
  EXPECT_THROW(tune_reduction(CaseId::kC1, out_of_bounds, options), Error);
}

TEST(TunerTest, DeterministicAcrossRuns) {
  const auto a = tune_reduction(CaseId::kC1, fast_options());
  const auto b = tune_reduction(CaseId::kC1, fast_options());
  ASSERT_EQ(a.evaluations(), b.evaluations());
  EXPECT_EQ(a.best.teams, b.best.teams);
  EXPECT_EQ(a.best.v, b.best.v);
  EXPECT_DOUBLE_EQ(a.best_gbps, b.best_gbps);
}

}  // namespace
}  // namespace ghs::core
