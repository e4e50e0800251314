// Failure-domain walkthrough: a four-node fleet loses an entire node —
// process, devices, admission queue, in-flight launches — mid-run. The
// phi-accrual health monitor notices the silent heartbeats, walks the node
// alive -> suspect -> dead, pulls it off the router's ring, and replays
// the jobs its write-ahead journal still held onto surviving peers
// exactly once. When the process comes back, the detector holds it
// through a warm-up window before letting it rejoin. A second node is
// drained gracefully for contrast: queue flushed to peers, zero replay,
// orderly departure. Through all of it every submitted job still ends
// served, rejected, or shed.
//
//   $ ./examples/membership_tour
//   $ ./examples/membership_tour --crash-us=500 --no-restart
//   $ ./examples/membership_tour --heartbeat-us=50    # faster detection
#include <cstdio>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/util/cli.hpp"

namespace {

using namespace ghs;

std::vector<serve::Job> make_workload(std::uint64_t seed, std::int64_t jobs,
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
        cluster::mix64(static_cast<std::uint64_t>(job.id)) % 16);
    job.source_node = 0;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("membership_tour",
          "node crash, detection, journal replay, rejoin, and a drain");
  const auto* jobs = cli.add_int("jobs", 1200, "total jobs");
  const auto* rate = cli.add_double("rate", 500000.0, "arrival rate, jobs/s");
  const auto* crash_us =
      cli.add_int("crash-us", 300, "node 1 crashes at this instant");
  const auto* restart_us = cli.add_int(
      "restart-us", 2000, "node 1's process restarts at this instant");
  const auto* no_restart =
      cli.add_flag("no-restart", "the crashed node never comes back");
  const auto* drain_us =
      cli.add_int("drain-us", 1000, "node 3 drains gracefully here (0 = off)");
  const auto* heartbeat_us =
      cli.add_int("heartbeat-us", 100, "failure-detector sweep interval");
  cli.parse_or_exit(argc, argv);

  cluster::ClusterOptions options;
  options.nodes = 4;
  options.router = cluster::RouterPolicy::kLeast;
  fault::NodeCrash crash;
  crash.node = 1;
  crash.at = *crash_us * kMicrosecond;
  if (!*no_restart) crash.restart_at = *restart_us * kMicrosecond;
  options.crash_plan.crashes.push_back(crash);
  if (*drain_us > 0) {
    options.drains.push_back(
        cluster::DrainSpec{3, *drain_us * kMicrosecond});
  }
  options.health.enabled = true;
  options.health.interval = *heartbeat_us * kMicrosecond;

  serve::ServiceModel model;
  cluster::Cluster fleet(model, options);
  fleet.submit_all(make_workload(42, *jobs, *rate));
  fleet.run();
  const cluster::ClusterReport r = fleet.report();

  std::printf("fleet of %d, node 1 crashes at %lld us%s, node 3 %s\n",
              options.nodes, static_cast<long long>(*crash_us),
              *no_restart ? " (for good)" : ", restarts later",
              *drain_us > 0 ? "drains gracefully" : "stays put");
  std::printf("  served %lld/%lld  rejected %lld  shed %lld  p99 %.3f ms\n",
              static_cast<long long>(r.served),
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.shed), r.latency.pct.p99);
  const auto& m = r.membership;
  std::printf("  crashes %lld  restarts %lld  drains %lld (flushed %lld)\n",
              static_cast<long long>(m.crashes),
              static_cast<long long>(m.restarts),
              static_cast<long long>(m.drains),
              static_cast<long long>(m.drain_flushed));
  std::printf("  replayed %lld jobs (%.3f GB)  redirected %lld  "
              "duplicates suppressed %lld\n",
              static_cast<long long>(m.replayed), m.replay_gb,
              static_cast<long long>(m.redirected),
              static_cast<long long>(m.duplicate_suppressed));
  std::printf("  detection latency %.3f ms mean / %.3f ms max over %lld\n",
              m.detection_mean_ms, m.detection_max_ms,
              static_cast<long long>(m.detections));
  std::printf("  membership log (%lld transitions):\n",
              static_cast<long long>(m.transitions));
  for (const auto& t : fleet.membership_table().log()) {
    std::printf("    [%8.3f ms] node%d %s -> %s (%s)\n",
                static_cast<double>(t.at) / static_cast<double>(kMillisecond),
                t.node, membership::node_state_name(t.from),
                membership::node_state_name(t.to), t.reason.c_str());
  }
  std::printf("  final states:");
  for (std::size_t i = 0; i < m.final_states.size(); ++i) {
    std::printf(" node%zu=%s", i, m.final_states[i].c_str());
  }
  std::printf("\n  invariant: %lld submitted == %lld served + %lld rejected "
              "+ %lld shed\n",
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.served),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.shed));
  return 0;
}
