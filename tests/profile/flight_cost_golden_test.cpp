// Golden bytes of the flight recorder and the cost report. A faulted,
// crashing, draining 4-node fleet runs with every recording site lit:
// batching, unified jobs, remote data, the bandwidth policy's tuner (its
// cache misses and the pricing Platforms' GPU and UM events), a fault plan
// on node 2 (kernel faults, an outage, a brown-out and a migration stall,
// so retries, breaker trips and steals), node 1 crashing and
// restarting under the phi-accrual detector (journal replay, redirects),
// node 3 draining, and a queue shallow enough to spill and reject. The
// recorder's capacity is above the run's record count, so the dump holds
// every record and pins the detail text of every site. A standalone fifo
// service under a GPU outage adds the sites a fleet does not reach: CPU
// fallback, and the unprefixed details of a service outside a cluster.
//
// The hashes were generated on the build whose recorder formatted each
// detail string when the event was recorded, and whose ledger was a hash
// map. A deliberate change to the model or to a format regenerates them
// (the failure message prints the new value).
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/cluster/cluster.hpp"
#include "ghs/cluster/ring.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/serve/service_model.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::profile {
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

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

TEST(FlightCostGoldenTest, FaultedCrashingDrainingFleetIsByteIdentical) {
  telemetry::Registry registry;
  telemetry::FlightRecorder flight(1 << 20);
  const telemetry::Sink sink{&registry, &flight, true};

  serve::OpenLoopOptions open;
  open.jobs = 20000;
  open.rate_hz = 80000.0;
  open.seed = 31;
  open.shape.um_fraction = 0.1;
  open.shape.deadline = 400 * kMicrosecond;
  std::vector<serve::Job> jobs = serve::open_loop_poisson(open);
  for (auto& job : jobs) {
    const std::uint64_t h = cluster::mix64(static_cast<std::uint64_t>(job.id));
    job.tenant = static_cast<std::int64_t>(h % 24);
    if ((h >> 8) % 10 < 3) job.source_node = static_cast<int>((h >> 16) % 4);
  }

  fault::Injector injector(
      fault::parse_plan("kernel-fault gpu p=0.05\n"
                        "device-down gpu from=5ms until=15ms\n"
                        "bandwidth gpu scale=0.5 from=20ms until=30ms\n"
                        "migration-stall scale=0.25 from=20ms until=30ms\n"),
      11, sink);
  serve::ServiceModelOptions model_options;
  model_options.telemetry = sink;
  serve::ServiceModel model(model_options);
  Recorder recorder;
  cluster::ClusterOptions options;
  options.nodes = 4;
  options.router = cluster::RouterPolicy::kP2c;
  options.policy = "bandwidth";
  options.node.queue_depth = 16;
  options.node.telemetry = sink;
  options.node.injector = &injector;
  options.node.profile = &recorder;
  options.fault_node = 2;
  options.crash_plan = fault::parse_crash_plan("1@12ms:25ms");
  options.drains = fault::parse_drain_plan("3@40ms");
  options.health.enabled = true;
  cluster::Cluster fleet(model, options);
  fleet.submit_all(std::move(jobs));
  fleet.run();

  const cluster::ClusterReport report = fleet.report();
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_EQ(report.membership.crashes, 1);
  EXPECT_EQ(report.membership.drains, 1);
  EXPECT_GT(report.membership.replayed, 0);
  EXPECT_GT(report.remote_jobs, 0);
  ASSERT_EQ(flight.dropped(), 0);

  std::ostringstream dump;
  dump << "recorded=" << flight.total_recorded() << "\n";
  flight.dump(dump);
  const std::string text = dump.str();
  // Every layer and the busy serving kinds reached the recorder.
  for (const char* site :
       {"] serve admission ", "] serve launch ", "] serve retry ",
        "] serve breaker ", "] serve steal ", "] serve crash ",
        "] serve restart ", "] tuner cache_miss ", "] gpu kernel_launch ",
        "] gpu wave_launch ", "] um ", "] fault kernel_fault ",
        "] fault outage_fault ", "] fault slowdown ",
        "] fault migration_stall ", "] cluster spill ", "] cluster steal ",
        "] membership crash ", "] membership transition ",
        "] membership replay ", "] membership drain "}) {
    EXPECT_TRUE(contains(text, site)) << site;
  }
  expect_hash("flight recorder dump", text, 0x99ed773e5c7a0cd3ull);

  std::ostringstream cost;
  recorder.ledger().write_json(cost, fleet.conservation_totals());
  EXPECT_TRUE(contains(cost.str(), "\"ok\":true"));
  expect_hash("cost report", cost.str(), 0x21673d830af7e714ull);

  std::ostringstream snapshot;
  telemetry::write_prometheus(snapshot, registry);
  expect_hash("telemetry snapshot", snapshot.str(), 0x3b286baaa0408117ull);
}

TEST(FlightCostGoldenTest, StandaloneServiceUnderAnOutageIsByteIdentical) {
  telemetry::FlightRecorder flight(1 << 16);
  const telemetry::Sink sink{nullptr, &flight};
  fault::Injector injector(
      fault::parse_plan("kernel-fault gpu p=0.05\n"
                        "device-down gpu from=2ms until=6ms\n"),
      5, sink);
  serve::ServiceModel model;
  Recorder recorder;
  serve::ServiceOptions options;
  options.queue_depth = 32;
  options.telemetry = sink;
  options.injector = &injector;
  options.profile = &recorder;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  serve::OpenLoopOptions open;
  open.jobs = 3000;
  open.rate_hz = 200000.0;
  open.seed = 37;
  open.shape.um_fraction = 0.1;
  open.shape.deadline = 300 * kMicrosecond;
  service.submit_all(serve::open_loop_poisson(open));
  service.run();
  ASSERT_EQ(flight.dropped(), 0);

  std::ostringstream dump;
  dump << "recorded=" << flight.total_recorded() << "\n";
  flight.dump(dump);
  const std::string text = dump.str();
  for (const char* site :
       {"] serve admission ", "] serve launch ", "] serve fallback ",
        "] serve retry ", "] serve shed ", "] serve breaker ",
        "] serve rejection "}) {
    EXPECT_TRUE(contains(text, site)) << site;
  }
  EXPECT_FALSE(contains(text, "node="));
  expect_hash("flight recorder dump", text, 0xfff9f50122ac7c45ull);

  std::ostringstream cost;
  recorder.ledger().write_json(cost, service.conservation_totals());
  EXPECT_TRUE(contains(cost.str(), "\"ok\":true"));
  expect_hash("cost report", cost.str(), 0x291c18b404e4fee0ull);
}

}  // namespace
}  // namespace ghs::profile
