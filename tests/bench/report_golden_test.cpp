// Golden bytes of the serving reports. Each run below is hashed with
// FNV-1a: the ServiceReport (or ClusterReport) JSON and the SLO report fed
// from the same run. The expected hashes were generated on the build that
// fully sorted every latency vector and kept a whole JobRecord per served
// job, so a reordered mean, a wrong quantile rank or a lost total in the
// report path fails here.
//
//   serve: 10^5 open-loop jobs at 150k jobs/s, well above what the node
//          serves, into a 32-deep queue (rejections), with 10% unified
//          jobs, a 300 us deadline (misses and deadline sheds) and a fault
//          plan that spans the run (retries, breaker trips, CPU
//          fallback), under fifo and under bandwidth;
//   fleet: 5*10^4 jobs at 400k jobs/s on 4 nodes behind p2c with remote
//          data, the same fault plan on node 2, and node 1 crashing and
//          restarting under the heartbeat detector (journal replay);
//   early loss: 3000 jobs at 100k jobs/s whose earliest arrival ends
//          unserved, once on a GPU-only service under an outage from time
//          zero (shed) and once on a one-node fleet down for its first
//          50 us (rejected). They pin the two makespan origins: the
//          service measures from its earliest served arrival, the fleet
//          from its earliest routed one. Their hashes were generated on
//          the build where the service and the fleet each kept their own
//          outcome log.
//
// A deliberate change to the model or the report format regenerates the
// hashes (the failure message prints the new value).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/cluster/cluster.hpp"
#include "ghs/cluster/ring.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/serve/service_model.hpp"
#include "ghs/slo/monitor.hpp"

namespace ghs {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void expect_hash(const char* what, const std::string& text,
                 std::uint64_t expected) {
  const std::uint64_t hash = fnv1a(text);
  char got[32];
  std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", hash);
  EXPECT_EQ(hash, expected) << what << " moved; its hash is now " << got;
}

/// Transient GPU faults for the whole run, a GPU outage, and a brown-out
/// with a migration stall, placed inside both the 667 ms serve runs and
/// the 125 ms fleet run.
constexpr const char* kPlan =
    "kernel-fault gpu p=0.02\n"
    "device-down gpu from=20ms until=35ms\n"
    "bandwidth gpu scale=0.5 from=60ms until=110ms\n"
    "migration-stall scale=0.25 from=60ms until=110ms\n";

std::vector<slo::Objective> objectives() {
  return {{"availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0},
          {"latency_p99", slo::ObjectiveKind::kLatencyQuantile, 0.99, 0.2}};
}

std::string slo_json(const slo::Monitor& monitor) {
  std::ostringstream os;
  monitor.evaluate().write_json(os);
  return os.str();
}

serve::OpenLoopOptions overloaded_mix(std::int64_t jobs, double rate_hz,
                                      std::uint64_t seed) {
  serve::OpenLoopOptions open;
  open.jobs = jobs;
  open.rate_hz = rate_hz;
  open.seed = seed;
  open.shape.um_fraction = 0.1;
  open.shape.deadline = 300 * kMicrosecond;
  return open;
}

void expect_serve_golden(const std::string& policy, std::uint64_t report_hash,
                         std::uint64_t slo_hash) {
  fault::Injector injector(fault::parse_plan(kPlan), 5);
  serve::ServiceModel model;
  serve::ServiceOptions options;
  options.queue_depth = 32;
  options.injector = &injector;
  serve::ReductionService service(serve::make_policy(policy, model), model,
                                  options);
  service.submit_all(
      serve::open_loop_poisson(overloaded_mix(100000, 150000.0, 21)));
  service.run();

  const serve::ServiceReport report = service.report();
  // The run reaches every total the report keeps.
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_GT(report.rejected, 0);
  EXPECT_GT(report.shed, 0);
  EXPECT_GT(report.retries, 0);
  EXPECT_GT(report.deadline_missed, 0);
  EXPECT_GT(report.um_jobs, 0);
  std::ostringstream json;
  report.write_json(json);
  expect_hash("serve report", json.str(), report_hash);

  slo::Monitor monitor(objectives());
  monitor.feed(service.outcomes());
  expect_hash("serve SLO report", slo_json(monitor), slo_hash);
}

TEST(ReportGoldenTest, FifoServeReportAndSloAreByteIdentical) {
  expect_serve_golden("fifo", 0x9ea202364022f3b4ull, 0xd1a01a065e24c83cull);
}

TEST(ReportGoldenTest, BandwidthServeReportAndSloAreByteIdentical) {
  expect_serve_golden("bandwidth", 0x6f9a5bed1a46d918ull,
                      0x060e9fc3452d8392ull);
}

TEST(ReportGoldenTest, FleetReportAndSloAreByteIdentical) {
  std::vector<serve::Job> jobs =
      serve::open_loop_poisson(overloaded_mix(50000, 400000.0, 23));
  for (auto& job : jobs) {
    const std::uint64_t h = cluster::mix64(static_cast<std::uint64_t>(job.id));
    job.tenant = static_cast<std::int64_t>(h % 16);
    if ((h >> 8) % 10 < 3) job.source_node = static_cast<int>((h >> 16) % 4);
  }
  fault::Injector injector(fault::parse_plan(kPlan), 7);
  serve::ServiceModel model;
  cluster::ClusterOptions options;
  options.nodes = 4;
  options.router = cluster::RouterPolicy::kP2c;
  options.policy = "bandwidth";
  options.node.queue_depth = 32;
  options.node.injector = &injector;
  options.fault_node = 2;
  options.crash_plan = fault::parse_crash_plan("1@30ms:80ms");
  options.health.enabled = true;
  cluster::Cluster fleet(model, options);
  fleet.submit_all(std::move(jobs));
  fleet.run();

  const cluster::ClusterReport report = fleet.report();
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_GT(report.rejected + report.shed, 0);
  EXPECT_GT(report.remote_jobs, 0);
  EXPECT_EQ(report.membership.crashes, 1);
  EXPECT_EQ(report.membership.restarts, 1);
  EXPECT_GT(report.membership.replayed, 0);
  std::ostringstream json;
  report.write_json(json);
  expect_hash("cluster report", json.str(), 0x03916374e0331a30ull);

  slo::Monitor monitor(objectives());
  monitor.feed(fleet.outcomes());
  expect_hash("cluster SLO report", slo_json(monitor), 0xc8f5406c7330cc6full);
}

/// A workload whose earliest arrival ends unserved: jobs arrive every
/// 10 us on average, each with a deadline of 40 us, shorter than the
/// first retry backoff (50 us plus jitter).
std::vector<serve::Job> early_loss_jobs() {
  serve::OpenLoopOptions open;
  open.jobs = 3000;
  open.rate_hz = 100000.0;
  open.seed = 29;
  open.shape.deadline = 40 * kMicrosecond;
  return serve::open_loop_poisson(open);
}

TEST(ReportGoldenTest, ServeMakespanStartsAtTheEarliestServedArrival) {
  // GPU-only under an outage from time zero: each launch fails fast and
  // its job's deadline rules out a retry, so the first arrivals are shed
  // and the served jobs follow the outage.
  const std::vector<serve::Job> jobs = early_loss_jobs();
  fault::Injector injector(
      fault::parse_plan("device-down gpu from=0ps until=1ms\n"), 3);
  serve::ServiceModel model;
  serve::ServiceOptions options;
  options.use_cpu = false;
  options.injector = &injector;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  bool first_shed = false;
  service.set_on_shed([&](const serve::Job& job, SimTime) {
    first_shed = first_shed || job.id == jobs.front().id;
  });
  SimTime first_served = std::numeric_limits<SimTime>::max();
  service.set_on_complete([&](const serve::JobRecord& record) {
    first_served = std::min(first_served, record.job.arrival);
  });
  service.submit_all(jobs);
  service.run();

  const serve::ServiceReport report = service.report();
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_GT(report.shed, 0);
  EXPECT_GT(report.served, 0);
  EXPECT_TRUE(first_shed);
  EXPECT_GT(first_served, jobs.front().arrival);
  std::ostringstream json;
  report.write_json(json);
  expect_hash("early-shed serve report", json.str(), 0x58de82c1c8b3189full);

  slo::Monitor monitor(objectives());
  monitor.feed(service.outcomes());
  expect_hash("early-shed serve SLO report", slo_json(monitor),
              0x42bb5f019715bd4aull);
}

TEST(ReportGoldenTest, FleetMakespanStartsAtTheEarliestRoutedArrival) {
  // One node, down from time zero to 50 us with no detector: the fleet
  // rejects every job routed before the restart and serves the rest.
  std::vector<serve::Job> jobs = early_loss_jobs();
  const SimTime first_arrival = jobs.front().arrival;
  serve::ServiceModel model;
  cluster::ClusterOptions options;
  options.nodes = 1;
  options.crash_plan = fault::parse_crash_plan("0@0ps:50us");
  cluster::Cluster fleet(model, options);
  fleet.submit_all(std::move(jobs));
  fleet.run();

  const cluster::ClusterReport report = fleet.report();
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_GT(report.rejected, 0);
  EXPECT_EQ(report.shed, 0);
  EXPECT_GT(report.served, 0);
  SimTime first_served = std::numeric_limits<SimTime>::max();
  for (const serve::JobTimes& times : fleet.outcomes().served) {
    first_served = std::min(first_served, times.arrival);
  }
  EXPECT_GT(first_served, first_arrival);
  std::ostringstream json;
  report.write_json(json);
  expect_hash("early-reject cluster report", json.str(),
              0xda2bc9fd60b514ccull);

  slo::Monitor monitor(objectives());
  monitor.feed(fleet.outcomes());
  expect_hash("early-reject cluster SLO report", slo_json(monitor),
              0xbb5adf8140b66dacull);
}

}  // namespace
}  // namespace ghs
