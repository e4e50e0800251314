// Load generator for the ghs::cluster fleet layer.
//
// Synthesises the serve-layer mixed C1-C4 open-loop workload across N
// simulated GH200 nodes, shards it by tenant, routes it through a front
// door policy, and emits a JSON throughput/latency report:
//
//   $ ./bench/cluster_loadgen --nodes=4                   # least-loaded
//   $ ./bench/cluster_loadgen --router=all                # policy table
//   $ ./bench/cluster_loadgen --remote-fraction=0.5       # pay transfers
//   $ ./bench/cluster_loadgen --scaling --nodes=16        # 1 vs 16 nodes
//   $ ./bench/cluster_loadgen --plan=down.plan --fault-node=2 --slo
//   $ ./bench/cluster_loadgen --crash-plan=1@300us:2ms --heartbeat-us=100
//   $ ./bench/cluster_loadgen --drain-at=3@1ms                # graceful
//
// --rate is PER NODE: total offered load is rate * nodes, so --scaling
// compares a single node against a fleet at identical per-node load and
// reports the speedup and scaling efficiency the router achieves.
//
// Tenants are assigned by hashing job ids (no workload RNG is consumed,
// so the generated jobs stay byte-identical to serve_loadgen's at the
// same seed); --remote-fraction places that share of jobs' source arrays
// on the tenant's consistent-hash home node, which the hash router serves
// locally while least/p2c pay inter-node transfers for.
//
// The workload, fault and output flags are serve_loadgen's, through the
// shared bench/harness.hpp, and so are the slo/timeline/cost report
// sections (keyed by router here). Every run checks that each submitted
// job was served, rejected or shed, across crashes and replays too.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/util/rng.hpp"
#include "ghs/util/strings.hpp"
#include "harness.hpp"

namespace {

using namespace ghs;

struct RunSettings {
  cluster::ClusterOptions cluster;
  serve::OpenLoopOptions open;  // rate_hz here is the TOTAL offered rate
  int tenants = 64;
  double remote_fraction = 0.0;
  /// Always passed to the run, even when empty, so every run builds an
  /// injector and the snapshot always carries the ghs_fault_* counters.
  fault::FaultPlan plan;
  /// Per-node series in the scraped outputs fall out of the node="i"
  /// instrument labels.
  bench::Outputs outputs;
};

/// Tenant identity and data placement, derived from job ids by the ring's
/// own mix so no workload randomness is consumed. The remote draw uses a
/// separate seeded stream: remote-fraction 0 leaves the jobs bit-equal to
/// the un-sharded workload.
void shard_workload(std::vector<serve::Job>& jobs,
                    const RunSettings& settings,
                    const cluster::HashRing& placement) {
  Rng remote_rng(settings.open.seed ^ 0xD15C0FF5E7ULL);
  for (auto& job : jobs) {
    job.tenant = static_cast<std::int64_t>(
        cluster::mix64(static_cast<std::uint64_t>(job.id)) %
        static_cast<std::uint64_t>(settings.tenants));
    if (settings.remote_fraction > 0.0 &&
        remote_rng.next_double() < settings.remote_fraction) {
      job.source_node =
          placement.owner(static_cast<std::uint64_t>(job.tenant));
    }
  }
}

cluster::ClusterReport run_router(bench::Harness& harness,
                                  cluster::RouterPolicy router,
                                  const RunSettings& settings,
                                  bench::RunSections* sections) {
  cluster::ClusterOptions options = settings.cluster;
  options.router = router;
  bench::Run run(harness, &settings.plan, options.node, settings.outputs);
  cluster::Cluster fleet(harness.model(), options, run.tracer());
  run.start(fleet.sim());
  std::vector<serve::Job> jobs = serve::open_loop_poisson(settings.open);
  // Placement follows the hash ring of THIS fleet size, so the hash
  // router serves remote-eligible jobs on their data's home node.
  shard_workload(jobs, settings, fleet.router().ring());
  fleet.submit_all(std::move(jobs));
  fleet.run();
  return run.finish(cluster::router_policy_name(router), fleet, sections);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      {.program = "cluster_loadgen",
       .description = "load generator for the sharded reduction-service fleet",
       .run_key = "router",
       .policy = "fifo",
       .policy_help = "per-node scheduler: fifo|sjf|bandwidth",
       .jobs = 2000});
  Cli& cli = harness.cli;
  const auto* nodes = cli.add_int("nodes", 4, "fleet size");
  const auto* router = cli.add_string(
      "router", "least", "hash|least|p2c|all");
  const auto* tenants = cli.add_int("tenants", 64, "distinct tenant ids");
  const auto* remote_fraction = cli.add_double(
      "remote-fraction", 0.0,
      "fraction of jobs whose source array lives on the tenant's home node");
  const auto* no_spill =
      cli.add_flag("no-spill", "rejections stay local (no spill re-route)");
  const auto* no_steal =
      cli.add_flag("no-steal", "keep queued jobs on a breaker-open node");
  const auto* link_gbps = cli.add_double(
      "link-gbps", 450.0, "per-direction inter-node link bandwidth, GB/s");
  const auto* fault_node =
      cli.add_int("fault-node", 0, "node the fault plan strikes");
  const auto* crash_plan = cli.add_string(
      "crash-plan", "",
      "whole-node crash schedule: node@at[:restart],... (e.g. 1@300us:2ms)");
  const auto* drain_at = cli.add_string(
      "drain-at", "", "graceful drain schedule: node@time,...");
  const auto* heartbeat_us = cli.add_int(
      "heartbeat-us", 0,
      "phi-accrual failure-detector heartbeat interval, microseconds "
      "(0 = detector off, crashes detected instantly)");
  const auto* scaling = cli.add_flag(
      "scaling",
      "also run a single node at the same per-node load and report speedup");
  harness.parse_or_exit(argc, argv);

  const std::string& program = harness.program();
  bench::require_positive(program, "--nodes", *nodes);
  bench::require_in_range(program, "--tenants", *tenants, 1,
                          std::numeric_limits<int>::max());
  bench::require_fraction(program, "--remote-fraction", *remote_fraction);
  bench::require_positive(program, "--link-gbps", *link_gbps);
  const SimTime heartbeat =
      bench::micros_or_exit(program, "--heartbeat-us", *heartbeat_us);
  // Every node index must name a node of the --nodes fleet.
  bench::require_in_range(program, "--fault-node", *fault_node, 0,
                          *nodes - 1);
  harness.require_policy(*harness.policy);
  std::vector<cluster::RouterPolicy> routers = {
      cluster::RouterPolicy::kHash, cluster::RouterPolicy::kLeast,
      cluster::RouterPolicy::kP2c};
  if (*router != "all") {
    routers = {bench::parse_flag_or_exit(
        program, [&] { return cluster::parse_router_policy(*router); })};
  }
  const fault::NodeCrashPlan crashes = bench::parse_flag_or_exit(
      program, [&] { return fault::parse_crash_plan(*crash_plan); });
  const std::vector<cluster::DrainSpec> drains = bench::parse_flag_or_exit(
      program, [&] { return fault::parse_drain_plan(*drain_at); });
  for (const auto& crash : crashes.crashes) {
    bench::require_in_range(program, "--crash-plan node", crash.node, 0,
                            *nodes - 1);
  }
  for (const auto& drain : drains) {
    bench::require_in_range(program, "--drain-at node", drain.node, 0,
                            *nodes - 1);
  }
  const bool membership =
      !crashes.empty() || !drains.empty() || heartbeat > 0;

  RunSettings settings;
  settings.cluster.nodes = static_cast<int>(*nodes);
  settings.cluster.policy = *harness.policy;
  settings.cluster.fault_node = static_cast<int>(*fault_node);
  settings.cluster.spill = !*no_spill;
  settings.cluster.steal = !*no_steal;
  settings.cluster.interconnect.link_bw = Bandwidth::from_gbps(*link_gbps);
  settings.cluster.node = harness.node_options();
  settings.cluster.crash_plan = crashes;
  settings.cluster.drains = drains;
  if (heartbeat > 0) {
    settings.cluster.health.enabled = true;
    settings.cluster.health.interval = heartbeat;
  }
  settings.open = harness.open_loop();
  settings.open.rate_hz *= static_cast<double>(*nodes);
  settings.tenants = static_cast<int>(*tenants);
  settings.remote_fraction = *remote_fraction;
  if (harness.fault_plan() != nullptr) settings.plan = *harness.fault_plan();
  settings.outputs = harness.outputs();

  std::ostringstream out;
  harness.begin_report(out);
  out << ",\"workload\":{\"nodes\":" << *nodes << ",\"policy\":\""
      << *harness.policy << "\",\"rate_hz_per_node\":" << *harness.rate
      << ",\"jobs\":" << *harness.jobs << ",\"seed\":" << *harness.seed
      << ",\"tenants\":" << *tenants << ",\"remote_fraction\":"
      << *remote_fraction << ",\"min_log2_elements\":" << *harness.min_log2
      << ",\"max_log2_elements\":" << *harness.max_log2
      << ",\"deadline_us\":" << *harness.deadline_us
      << ",\"um_fraction\":" << *harness.um_fraction
      << ",\"queue_depth\":" << *harness.depth << ",\"spill\":"
      << (settings.cluster.spill ? "true" : "false") << ",\"steal\":"
      << (settings.cluster.steal ? "true" : "false") << ",\"fault_plan\":\""
      << (harness.plan->empty() ? "none" : *harness.plan) << "\"";
  harness.write_interval_echo(out);
  // Membership knobs echoed only when the layer is on, so reports without
  // it keep their exact bytes.
  if (membership) {
    out << ",\"crash_plan\":\""
        << (crashes.empty() ? "none" : fault::format_crash_plan(crashes))
        << "\",\"drains\":" << drains.size()
        << ",\"heartbeat_us\":" << *heartbeat_us;
  }
  out << "},\"routers\":[";

  std::vector<cluster::ClusterReport> reports(routers.size());
  std::vector<bench::RunSections> sections(routers.size());
  for (std::size_t i = 0; i < routers.size(); ++i) {
    reports[i] = bench::run_or_exit(program, [&] {
      return run_router(harness, routers[i], settings, &sections[i]);
    });
    if (i > 0) out << ",";
    reports[i].write_json(out);
  }
  out << "]";

  if (routers.size() > 1) {
    // Router-policy comparison: machine-readable here, human table below.
    out << ",\"comparison\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      if (i > 0) out << ",";
      out << "{\"router\":\"" << r.router
          << "\",\"jobs_per_s\":" << format_fixed(r.throughput_jobs_per_s, 6)
          << ",\"gbps\":" << format_fixed(r.throughput_gbps, 6)
          << ",\"p99_ms\":" << format_fixed(r.latency.pct.p99, 6)
          << ",\"rejected\":" << r.rejected
          << ",\"remote_jobs\":" << r.remote_jobs
          << ",\"imbalance\":" << format_fixed(r.imbalance, 6) << "}";
    }
    out << "]";
    std::fprintf(stderr, "%-8s %9s %9s %10s %10s %10s %8s %10s\n", "router",
                 "served", "rejected", "jobs/s", "p99_ms", "gbps", "remote",
                 "imbalance");
    for (const auto& r : reports) {
      std::fprintf(stderr,
                   "%-8s %9lld %9lld %10.0f %10.4f %10.2f %8lld %10.3f\n",
                   r.router.c_str(), static_cast<long long>(r.served),
                   static_cast<long long>(r.rejected),
                   r.throughput_jobs_per_s, r.latency.pct.p99,
                   r.throughput_gbps, static_cast<long long>(r.remote_jobs),
                   r.imbalance);
    }
  }

  if (*scaling) {
    // Single node at the same per-node offered load, same seed, a
    // proportional share of the jobs — the denominator of the fleet's
    // scaling efficiency. Not scraped: the fleet run owns the series file
    // and the timeline section.
    RunSettings single = settings;
    single.cluster.nodes = 1;
    single.cluster.fault_node = 0;
    // The scaling denominator stays crash-free: a node schedule written
    // for the fleet would be out of range (and meaningless) on one node.
    single.cluster.crash_plan = fault::NodeCrashPlan{};
    single.cluster.drains.clear();
    single.cluster.health = membership::HealthOptions{};
    single.open.rate_hz = *harness.rate;
    single.open.jobs = std::max<std::int64_t>(*harness.jobs / *nodes, 1);
    single.outputs.scrape = bench::ScrapeSettings{};
    // The fleet run owns the collapsed-stack file and the cost section;
    // the denominator still self-checks conservation when profiling.
    single.outputs.profile.profile_out.clear();
    const cluster::ClusterReport single_report = run_router(
        harness, cluster::RouterPolicy::kLeast, single, nullptr);
    const cluster::ClusterReport& fleet = reports.front();
    const double speedup =
        single_report.throughput_jobs_per_s > 0.0
            ? fleet.throughput_jobs_per_s /
                  single_report.throughput_jobs_per_s
            : 0.0;
    const double p99_ratio = single_report.latency.pct.p99 > 0.0
                                 ? fleet.latency.pct.p99 /
                                       single_report.latency.pct.p99
                                 : 0.0;
    out << ",\"scaling\":{\"nodes\":" << *nodes << ",\"single_jobs_per_s\":"
        << format_fixed(single_report.throughput_jobs_per_s, 6)
        << ",\"fleet_jobs_per_s\":"
        << format_fixed(fleet.throughput_jobs_per_s, 6)
        << ",\"speedup\":" << format_fixed(speedup, 6) << ",\"efficiency\":"
        << format_fixed(speedup / static_cast<double>(*nodes), 6)
        << ",\"single_p99_ms\":"
        << format_fixed(single_report.latency.pct.p99, 6)
        << ",\"fleet_p99_ms\":" << format_fixed(fleet.latency.pct.p99, 6)
        << ",\"p99_ratio\":" << format_fixed(p99_ratio, 6) << "}";
  }

  if (membership) {
    // Recovery accounting per router: detection latency, replay volume,
    // jobs recovered. Mirrors the per-report "membership" key, but in one
    // place for the perf gate and for humans.
    out << ",\"membership_report\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"router\":\"" << reports[i].router << "\",\"membership\":";
      reports[i].membership.write_json(out);
      out << "}";
    }
    out << "]";
    for (const auto& r : reports) {
      std::fprintf(stderr,
                   "[%s] membership: crashes=%lld restarts=%lld drains=%lld "
                   "replayed=%lld redirected=%lld dup=%lld replay_gb=%.3f "
                   "detect_mean_ms=%.3f detect_max_ms=%.3f\n",
                   r.router.c_str(),
                   static_cast<long long>(r.membership.crashes),
                   static_cast<long long>(r.membership.restarts),
                   static_cast<long long>(r.membership.drains),
                   static_cast<long long>(r.membership.replayed),
                   static_cast<long long>(r.membership.redirected),
                   static_cast<long long>(r.membership.duplicate_suppressed),
                   r.membership.replay_gb, r.membership.detection_mean_ms,
                   r.membership.detection_max_ms);
    }
  }

  harness.write_sections(out, sections);
  harness.end_report(out);
  return 0;
}
