// Failure domains end to end: whole-node crashes with journal replay keep
// the zero-lost-jobs invariant, restarts rejoin through the detector's
// warm-up, drains empty a node gracefully, late deliveries are suppressed
// exactly once, and every membership run is byte-reproducible — while a
// membership-off run stays byte-identical to a membership-unaware build.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/util/units.hpp"

namespace ghs::cluster {
namespace {

std::vector<serve::Job> fleet_workload(std::uint64_t seed, int jobs,
                                       double rate_hz) {
  serve::OpenLoopOptions load;
  load.jobs = jobs;
  load.rate_hz = rate_hz;
  load.seed = seed;
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 18;
  auto out = serve::open_loop_poisson(load);
  for (auto& job : out) {
    job.tenant = static_cast<std::int64_t>(
        mix64(static_cast<std::uint64_t>(job.id)) % 16);
    job.source_node = 0;
  }
  return out;
}

void check_invariant(const ClusterReport& report) {
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
}

ClusterReport run_fleet(ClusterOptions options, int jobs, double rate_hz) {
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, jobs, rate_hz));
  fleet.run();
  return fleet.report();
}

TEST(Membership, CrashReplayKeepsTheInvariant) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  options.crash_plan = fault::parse_crash_plan("1@300us");
  const ClusterReport report = run_fleet(options, 400, 250000.0);
  check_invariant(report);
  ASSERT_TRUE(report.membership_aware);
  EXPECT_EQ(report.membership.crashes, 1);
  EXPECT_EQ(report.membership.restarts, 0);
  // The detector is off, so death is declared at the crash instant.
  EXPECT_EQ(report.membership.detections, 1);
  EXPECT_DOUBLE_EQ(report.membership.detection_mean_ms, 0.0);
  // Node 1 had work queued/in flight at 300us; all of it was replayed.
  EXPECT_GT(report.membership.replayed, 0);
  EXPECT_GT(report.membership.replay_gb, 0.0);
  ASSERT_EQ(report.membership.final_states.size(), 4u);
  EXPECT_EQ(report.membership.final_states[1], "dead");
  EXPECT_EQ(report.membership.final_states[0], "alive");
}

TEST(Membership, ReplayedJobsLandOnSurvivors) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  options.crash_plan = fault::parse_crash_plan("1@300us");
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 400, 250000.0));
  fleet.run();
  const SimTime crash_at = 300 * kMicrosecond;
  for (const auto& record : fleet.records()) {
    if (record.completion > crash_at) {
      EXPECT_NE(record.node, 1) << "job " << record.id
                                << " served on the dead node";
    }
  }
  // Nothing stays open in the journal at the end of a run.
  const auto* journal = fleet.journal();
  ASSERT_NE(journal, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(journal->open_count(i), 0);
}

TEST(Membership, SamplerCountsEverySpanItSkipsAcrossACrash) {
  // Kept + ring drops + sampler drops at rate 0.05 must add up to what the
  // unsampled fleet keeps: every skipped span or instant is counted once.
  const auto accounted = [](double rate) {
    trace::Tracer tracer;
    tracer.set_sampler(trace::SamplerOptions{rate, 11});
    ClusterOptions options;
    options.nodes = 4;
    options.router = RouterPolicy::kLeast;
    options.crash_plan = fault::parse_crash_plan("1@300us:2ms");
    serve::ServiceModel model;
    Cluster fleet(model, options, &tracer);
    auto jobs = fleet_workload(42, 600, 400000.0);
    for (std::size_t i = 0; i < jobs.size(); i += 5) jobs[i].unified = true;
    fleet.submit_all(std::move(jobs));
    fleet.run();
    const ClusterReport report = fleet.report();
    check_invariant(report);
    EXPECT_EQ(report.membership.crashes, 1);
    EXPECT_GT(report.membership.replayed, 0);
    if (rate < 1.0) {
      EXPECT_GT(tracer.dropped_by_sampler(), 0);
    }
    return static_cast<std::int64_t>(tracer.size()) +
           tracer.dropped_total() + tracer.dropped_by_sampler();
  };
  EXPECT_EQ(accounted(0.05), accounted(1.0));
}

TEST(Membership, CrashWithRestartRejoinsThroughTheDetector) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  options.crash_plan = fault::parse_crash_plan("1@300us:2ms");
  options.health.enabled = true;
  options.health.interval = 100 * kMicrosecond;
  // Long tail of arrivals so the fleet is still busy past the rejoin.
  const ClusterReport report = run_fleet(options, 1200, 120000.0);
  check_invariant(report);
  EXPECT_EQ(report.membership.crashes, 1);
  EXPECT_EQ(report.membership.restarts, 1);
  EXPECT_EQ(report.membership.detections, 1);
  // Heartbeat detection is quantised to sweeps: strictly positive latency.
  EXPECT_GT(report.membership.detection_mean_ms, 0.0);
  EXPECT_GT(report.membership.replayed, 0);
  EXPECT_EQ(report.membership.final_states[1], "alive");
  // alive->suspect->dead->alive: three transitions at minimum.
  EXPECT_GE(report.membership.transitions, 3);
}

TEST(Membership, DrainFlushesQueuedWorkAndLeavesTheRing) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kHash;  // load-blind: keeps node 1 busy
  options.drains.push_back(DrainSpec{1, 400 * kMicrosecond});
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 400, 250000.0));
  fleet.run();
  const ClusterReport report = fleet.report();
  check_invariant(report);
  EXPECT_EQ(report.membership.crashes, 0);
  EXPECT_EQ(report.membership.drains, 1);
  EXPECT_EQ(report.membership.replayed, 0);  // drain is not a failure
  EXPECT_EQ(report.membership.final_states[1], "left");
  EXPECT_FALSE(fleet.router().ring().contains(1));
  // Drained work is rerouted, not lost: zero rejections at this load.
  EXPECT_EQ(report.served, report.submitted);
}

TEST(Membership, ProgrammaticDrainBeforeTrafficEmptiesTheNode) {
  ClusterOptions options;
  options.nodes = 3;
  options.router = RouterPolicy::kLeast;
  // Scheduled at t = 0, so it runs before the first arrival.
  options.drains.push_back(DrainSpec{1, 0});
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 200, 150000.0));
  fleet.run();
  const ClusterReport report = fleet.report();
  check_invariant(report);
  EXPECT_EQ(report.membership.drains, 1);
  EXPECT_EQ(report.membership.drain_flushed, 0);  // nothing queued yet
  EXPECT_EQ(report.routed[1], 0);
  EXPECT_EQ(report.node_reports[1].served, 0);
  EXPECT_EQ(report.served, report.submitted);
}

TEST(Membership, LateDeliveriesAreSuppressedExactlyOnce) {
  // A slow interconnect keeps deliveries to node 1 in flight when the
  // crash fires; replay re-runs those jobs elsewhere, and the landing
  // transfer must then be dropped — served exactly once, never zero.
  ClusterOptions options;
  options.nodes = 3;
  options.router = RouterPolicy::kLeast;
  options.interconnect.link_bw = Bandwidth::from_gbps(2.0);
  options.crash_plan = fault::parse_crash_plan("1@500us");
  const ClusterReport report = run_fleet(options, 300, 300000.0);
  check_invariant(report);
  EXPECT_GT(report.membership.duplicate_suppressed, 0);
  EXPECT_GT(report.membership.replayed, 0);
}

TEST(Membership, LateLandingAfterLocalRecoveryIsADuplicate) {
  // Node 1 crashes and restarts before the detector declares it dead, so
  // it recovers its own journal locally. A slow interconnect keeps a
  // delivery to node 1 in flight across the restart: recovery re-admits
  // that job at once, and the landing transfer must then be dropped, not
  // admitted as a second copy.
  ClusterOptions options;
  options.nodes = 3;
  options.router = RouterPolicy::kLeast;
  options.interconnect.link_bw = Bandwidth::from_gbps(5.0);
  options.crash_plan = fault::parse_crash_plan("1@300us:650us");
  options.health.enabled = true;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 300, 300000.0));
  fleet.run();
  const ClusterReport report = fleet.report();
  check_invariant(report);
  EXPECT_EQ(report.membership.restarts, 1);
  EXPECT_EQ(report.membership.detections, 0);
  EXPECT_GT(report.membership.replayed, 0);
  EXPECT_GT(report.membership.duplicate_suppressed, 0);
  std::vector<serve::JobId> ids;
  for (const auto& record : fleet.records()) {
    ids.push_back(record.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "a job was served twice";
}

TEST(Membership, CrashRunsAreByteIdentical) {
  const auto once = [] {
    ClusterOptions options;
    options.nodes = 4;
    options.router = RouterPolicy::kP2c;
    options.crash_plan = fault::parse_crash_plan("1@300us:2ms,2@900us");
    options.health.enabled = true;
    const ClusterReport report = run_fleet(options, 600, 200000.0);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  EXPECT_EQ(once(), once());
}

TEST(Membership, DetectorOnCrashFreeRunMatchesOffExceptMembershipKey) {
  // The detector only observes: with no crash plan, every byte of the
  // report except the trailing "membership" object must match the
  // membership-off run.
  ClusterOptions off;
  off.nodes = 4;
  off.router = RouterPolicy::kLeast;
  ClusterOptions on = off;
  on.health.enabled = true;

  const auto render = [](ClusterOptions options) {
    const ClusterReport report = run_fleet(options, 400, 200000.0);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  const std::string off_json = render(off);
  const std::string on_json = render(on);
  const auto pos = on_json.find(",\"membership\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(off_json, on_json.substr(0, pos) + "}");
  EXPECT_EQ(off_json.find("\"membership\""), std::string::npos);
}

TEST(Membership, TransitionsAndCrashesReachTheFlightRecorder) {
  telemetry::FlightRecorder flight;
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  options.crash_plan = fault::parse_crash_plan("1@300us");
  options.node.telemetry.flight = &flight;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 300, 200000.0));
  fleet.run();

  bool saw_crash = false;
  bool saw_transition = false;
  for (const auto& event : flight.events()) {
    if (event.layer != "membership") continue;
    // Structured detail: node label first, then the narrative.
    EXPECT_EQ(event.detail.rfind("node=1 ", 0), 0u) << event.detail;
    if (event.kind == "crash") {
      saw_crash = true;
      EXPECT_EQ(event.at, 300 * kMicrosecond);
    }
    if (event.kind == "transition") {
      saw_transition = true;
      EXPECT_NE(event.detail.find("dead"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_transition);
}

}  // namespace
}  // namespace ghs::cluster
