// Cluster semantics: the terminal-outcome invariant, spill-on-reject
// backpressure, transfer-cost accounting, peer-fallback stealing under a
// device-down fault plan, and byte-reproducibility at a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/cluster/ring.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::cluster {
namespace {

/// Open-loop workload with tenants assigned by id hash and every tenant's
/// data homed on node 0 — remote placement cost is then visible for any
/// router that spreads load.
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
    job.tenant =
        static_cast<std::int64_t>(mix64(static_cast<std::uint64_t>(job.id)) % 16);
    job.source_node = 0;
  }
  return out;
}

void check_invariant(const ClusterReport& report) {
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
}

ClusterReport run_fleet(ClusterOptions options, std::uint64_t seed, int jobs,
                        double rate_hz, fault::Injector* injector = nullptr) {
  serve::ServiceModel model;
  options.node.injector = injector;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(seed, jobs, rate_hz));
  fleet.run();
  return fleet.report();
}

TEST(Cluster, ServesTheWholeWorkloadAcrossNodes) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  const ClusterReport report = run_fleet(options, 42, 400, 150000.0);
  check_invariant(report);
  EXPECT_EQ(report.submitted, 400);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.shed, 0);
  EXPECT_GT(report.makespan, 0);
  ASSERT_EQ(report.routed.size(), 4u);
  for (const std::int64_t routed : report.routed) EXPECT_GT(routed, 0);
  EXPECT_GE(report.imbalance, 1.0);
  ASSERT_EQ(report.node_reports.size(), 4u);
  std::int64_t node_served = 0;
  for (const auto& node : report.node_reports) node_served += node.served;
  EXPECT_EQ(node_served, report.served);
}

TEST(Cluster, RemoteDataPaysTransfersThatAreAccounted) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kLeast;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  std::vector<ClusterRecord> records;
  fleet.set_on_complete(
      [&records](const ClusterRecord& record) { records.push_back(record); });
  fleet.submit_all(fleet_workload(42, 200, 150000.0));
  fleet.run();
  const ClusterReport report = fleet.report();
  check_invariant(report);
  // Everything is homed on node 0, so any job served elsewhere is remote.
  EXPECT_GT(report.remote_jobs, 0);
  EXPECT_GT(report.transfers, 0);
  EXPECT_GT(report.transfer_gb, 0.0);
  ASSERT_NE(fleet.interconnect(), nullptr);
  EXPECT_EQ(fleet.interconnect()->transfers(), report.transfers);
  for (const auto& record : records) {
    if (record.node != 0) {
      EXPECT_GT(record.transfer, 0) << "job " << record.id;
    } else if (record.spills == 0 && !record.stolen) {
      EXPECT_EQ(record.transfer, 0) << "job " << record.id;
    }
    // Front-door latency covers the transfer plus the node-local life.
    EXPECT_GE(record.latency(), record.completion - record.node_arrival);
  }
}

TEST(Cluster, HashRouterKeepsTenantsLocalToTheirDataHome) {
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kHash;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  // Home every tenant where the router's own ring puts it: routing then
  // lands each job exactly on its data and no transfer is ever paid.
  auto jobs = fleet_workload(42, 200, 120000.0);
  for (auto& job : jobs) {
    job.source_node =
        fleet.router().ring().owner(static_cast<std::uint64_t>(job.tenant));
  }
  fleet.submit_all(std::move(jobs));
  fleet.run();
  const ClusterReport report = fleet.report();
  check_invariant(report);
  EXPECT_EQ(report.remote_jobs, 0);
  EXPECT_EQ(report.transfers, 0);
}

TEST(Cluster, SpillRescuesJobsARefusingNodeWouldReject) {
  // Two nodes, shallow queues, a burst well past one node's capacity:
  // without spill the refusing node's rejections are final; with spill
  // they get a second chance on the peer.
  ClusterOptions options;
  options.nodes = 2;
  options.router = RouterPolicy::kHash;  // load-blind: piles onto hot nodes
  options.node.queue_depth = 4;

  ClusterOptions no_spill = options;
  no_spill.spill = false;
  const ClusterReport without = run_fleet(no_spill, 42, 300, 400000.0);
  const ClusterReport with = run_fleet(options, 42, 300, 400000.0);

  check_invariant(without);
  check_invariant(with);
  EXPECT_GT(without.rejected, 0);
  EXPECT_EQ(without.spills, 0);
  EXPECT_GT(with.spills, 0);
  EXPECT_GT(with.spilled_saved, 0);
  EXPECT_LT(with.rejected, without.rejected);
}

TEST(Cluster, StealMovesQueuedWorkOffANodeWhoseGpuBreakerOpens) {
  // Tenant-sticky routing keeps feeding the sick node while its GPU is
  // down, so the breaker trips with work still queued behind it; the
  // steal path must drain that queue to healthy peers and lose nothing.
  const auto plan = fault::parse_plan("device-down gpu from=200us until=1200us\n");
  fault::Injector injector(plan, 7, {});
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kHash;
  options.fault_node = 1;
  options.node.queue_depth = 512;  // deep: admission never rejects
  const ClusterReport report =
      run_fleet(options, 42, 400, 300000.0, &injector);

  check_invariant(report);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.served, report.submitted);  // zero lost jobs
  EXPECT_GT(report.steals, 0);
  EXPECT_GT(report.stolen_jobs, 0);
}

TEST(Cluster, StolenJobsAreServedByHealthyPeers) {
  const auto plan = fault::parse_plan("device-down gpu from=200us until=1200us\n");
  fault::Injector injector(plan, 7, {});
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kHash;
  options.fault_node = 1;
  options.node.queue_depth = 512;
  serve::ServiceModel model;
  options.node.injector = &injector;
  Cluster fleet(model, options);
  std::int64_t stolen_seen = 0;
  fleet.set_on_complete([&stolen_seen](const ClusterRecord& record) {
    if (!record.stolen) return;
    ++stolen_seen;
    EXPECT_NE(record.node, 1) << "job " << record.id;
    EXPECT_GT(record.transfer, 0) << "job " << record.id;
  });
  fleet.submit_all(fleet_workload(42, 400, 300000.0));
  fleet.run();
  EXPECT_EQ(stolen_seen, fleet.report().stolen_jobs);
  EXPECT_GT(stolen_seen, 0);
}

TEST(Cluster, CompletionHookFiresOncePerServedJob) {
  const auto plan = fault::parse_plan("device-down gpu from=200us until=1200us\n");
  fault::Injector injector(plan, 7, {});
  ClusterOptions options;
  options.nodes = 4;
  options.router = RouterPolicy::kHash;
  options.fault_node = 1;
  options.node.queue_depth = 512;
  options.node.injector = &injector;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  std::vector<ClusterRecord> records;
  fleet.set_on_complete(
      [&records](const ClusterRecord& record) { records.push_back(record); });
  fleet.submit_all(fleet_workload(42, 400, 300000.0));
  fleet.run();

  const ClusterReport report = fleet.report();
  const std::vector<serve::JobTimes>& served = fleet.outcomes().served;
  ASSERT_EQ(records.size(), served.size());
  EXPECT_EQ(static_cast<std::int64_t>(records.size()), report.served);
  std::int64_t stolen = 0;
  std::vector<serve::JobId> ids;
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Both are in completion order, and the log keeps the front-door
    // times the hook reports.
    EXPECT_EQ(records[i].original_arrival, served[i].arrival);
    EXPECT_EQ(records[i].node_arrival, served[i].start);
    EXPECT_EQ(records[i].completion, served[i].completion);
    EXPECT_EQ(records[i].latency(), served[i].latency());
    if (records[i].stolen) ++stolen;
    ids.push_back(records[i].id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "the hook fired twice for one job";
  EXPECT_EQ(stolen, report.stolen_jobs);
  EXPECT_GT(stolen, 0);
}

TEST(Cluster, SameSeedRunsAreByteIdentical) {
  const auto once = [](RouterPolicy router) {
    const auto plan =
        fault::parse_plan("kernel-fault gpu p=0.05\n"
                          "device-down gpu from=200us until=900us\n");
    fault::Injector injector(plan, 7, {});
    ClusterOptions options;
    options.nodes = 4;
    options.router = router;
    options.fault_node = 1;
    const ClusterReport report =
        run_fleet(options, 42, 300, 250000.0, &injector);
    std::ostringstream os;
    report.write_json(os);
    return os.str();
  };
  for (const auto router :
       {RouterPolicy::kHash, RouterPolicy::kLeast, RouterPolicy::kP2c}) {
    EXPECT_EQ(once(router), once(router))
        << router_policy_name(router);
  }
}

TEST(Cluster, ExportsNamespacedTelemetryAndFeedsSlo) {
  telemetry::Registry registry;
  ClusterOptions options;
  options.nodes = 2;
  options.router = RouterPolicy::kLeast;
  options.node.telemetry.metrics = &registry;
  serve::ServiceModel model;
  Cluster fleet(model, options);
  fleet.submit_all(fleet_workload(42, 150, 150000.0));
  fleet.run();

  std::ostringstream snapshot;
  telemetry::write_json_snapshot(snapshot, registry);
  const std::string metrics = snapshot.str();
  // Node-level instruments carry node="i"; cluster-level ones the router.
  // Label blocks render Prometheus-style inside the JSON keys, so the
  // quotes arrive escaped.
  EXPECT_NE(metrics.find("ghs_cluster_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(metrics.find("node=\\\"0\\\""), std::string::npos);
  EXPECT_NE(metrics.find("node=\\\"1\\\""), std::string::npos);
  EXPECT_NE(metrics.find("router=\\\"least\\\""), std::string::npos);

  slo::Monitor monitor({slo::Objective{"availability",
                                       slo::ObjectiveKind::kAvailability,
                                       0.999, 0.0},
                        slo::Objective{"latency_p99",
                                       slo::ObjectiveKind::kLatencyQuantile,
                                       0.99, 1000.0}});
  fleet.feed_slo(monitor);
  std::ostringstream slo_os;
  monitor.evaluate().write_json(slo_os);
  const std::string slo_json = slo_os.str();
  EXPECT_NE(slo_json.find("\"availability\""), std::string::npos);
  EXPECT_NE(slo_json.find("\"latency_p99\""), std::string::npos);
}

}  // namespace
}  // namespace ghs::cluster
