// Load-generator unit tests plus the end-to-end determinism check: the
// whole served-latency pipeline (Poisson workload -> admission ->
// scheduling -> batching -> report) must produce byte-identical JSON for
// the same seed.
#include "ghs/serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "ghs/serve/policy.hpp"

namespace ghs::serve {
namespace {

TEST(OpenLoopTest, DeadlinesPastTheClockSaturate) {
  // 9223372036854 us, the longest --deadline-us, overflows arrival +
  // deadline for any arrival past 775.807 ns; such deadlines never come.
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  OpenLoopOptions options;
  options.jobs = 200;
  options.rate_hz = 50000.0;
  options.shape.deadline = 9223372036854 * kMicrosecond;
  const SimTime headroom = kNever - options.shape.deadline;
  EXPECT_EQ(headroom, 775807);
  for (const auto& job : open_loop_poisson(options)) {
    EXPECT_EQ(job.deadline, job.arrival > headroom
                                ? kNever
                                : job.arrival + options.shape.deadline);
  }
}

TEST(OpenLoopTest, ArrivalsAreMonotoneAndShaped) {
  OpenLoopOptions options;
  options.jobs = 100;
  options.rate_hz = 50000.0;
  options.shape.min_log2_elements = 14;
  options.shape.max_log2_elements = 18;
  options.shape.deadline = kMillisecond;
  const auto jobs = open_loop_poisson(options);
  ASSERT_EQ(jobs.size(), 100u);
  SimTime last = -1;
  std::set<workload::CaseId> cases;
  for (const auto& job : jobs) {
    EXPECT_GT(job.arrival, last);
    last = job.arrival;
    EXPECT_GE(job.elements, std::int64_t{1} << 14);
    EXPECT_LE(job.elements, std::int64_t{1} << 18);
    // Power-of-two grid.
    EXPECT_EQ(job.elements & (job.elements - 1), 0);
    EXPECT_EQ(job.deadline, job.arrival + kMillisecond);
    cases.insert(job.case_id);
  }
  // 100 draws from a uniform 4-way mix hit every case.
  EXPECT_EQ(cases.size(), 4u);
}

TEST(OpenLoopTest, SeedIsTheWorkload) {
  OpenLoopOptions options;
  options.jobs = 50;
  const auto a = open_loop_poisson(options);
  const auto b = open_loop_poisson(options);
  options.seed = 43;
  const auto c = open_loop_poisson(options);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].elements, b[i].elements);
    EXPECT_EQ(a[i].case_id, b[i].case_id);
    differs |= a[i].arrival != c[i].arrival;
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoopTest, MixWeightsAreRespected) {
  OpenLoopOptions options;
  options.jobs = 60;
  options.shape.mix = {{workload::CaseId::kC2, 1.0}};
  for (const auto& job : open_loop_poisson(options)) {
    EXPECT_EQ(job.case_id, workload::CaseId::kC2);
  }
}

// The acceptance pipeline at test scale: run the same open-loop workload
// through a policy twice and require byte-identical JSON reports.
std::string serve_json(const std::string& policy, std::uint64_t seed) {
  OpenLoopOptions load;
  load.jobs = 60;
  load.rate_hz = 200000.0;
  load.seed = seed;
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 18;
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy(policy, model), model, options);
  service.submit_all(open_loop_poisson(load));
  service.run();
  std::ostringstream json;
  service.report().write_json(json);
  return json.str();
}

TEST(ServePipelineTest, SameSeedSameJsonReport) {
  EXPECT_EQ(serve_json("fifo", 42), serve_json("fifo", 42));
  EXPECT_EQ(serve_json("bandwidth", 42), serve_json("bandwidth", 42));
  EXPECT_NE(serve_json("fifo", 42), serve_json("fifo", 99));
}

TEST(ServePipelineTest, ReportJsonCarriesTheContract) {
  const auto json = serve_json("bandwidth", 42);
  for (const char* key :
       {"\"policy\":\"bandwidth\"", "\"p50_ms\":", "\"p95_ms\":",
        "\"p99_ms\":", "\"rejected\":", "\"throughput_gbps\":",
        "\"tuner_misses\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ServePipelineTest, BandwidthBeatsFifoOnSaturatedMixedLoad) {
  OpenLoopOptions load;
  load.jobs = 80;
  load.rate_hz = 400000.0;  // well past single-GPU capacity
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 19;
  const auto workload = open_loop_poisson(load);
  ServiceModel model;
  double gbps[2] = {0.0, 0.0};
  int i = 0;
  for (const std::string policy : {"fifo", "bandwidth"}) {
    ServiceOptions options;
    options.queue_depth = 16;
    ReductionService service(make_policy(policy, model), model, options);
    service.submit_all(workload);
    service.run();
    gbps[i++] = service.report().throughput_gbps;
  }
  EXPECT_GT(gbps[1], gbps[0]);
}

}  // namespace
}  // namespace ghs::serve
