// Fleet walkthrough: four simulated GH200 nodes behind a router absorb a
// mid-run GPU outage on one of them. Tenant-sticky routing keeps feeding
// the sick node until its GPU circuit breaker opens; the cluster then
// steals its queued jobs and re-homes them on healthy peers (paying the
// inter-node transfer), while the node itself limps along on its Grace
// CPU. Every job still ends served, rejected, or shed — the fleet loses
// nothing.
//
//   $ ./examples/cluster_tour
//   $ ./examples/cluster_tour --router=p2c --down-from-us=300
#include <cstdio>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/cluster/ring.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/util/cli.hpp"

namespace {

using namespace ghs;

void print_report(const char* label, const cluster::ClusterReport& r) {
  std::printf("%s\n", label);
  std::printf("  served %lld/%lld  rejected %lld  shed %lld  "
              "p50 %.3f ms  p99 %.3f ms\n",
              static_cast<long long>(r.served),
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.shed), r.latency.pct.p50,
              r.latency.pct.p99);
  std::printf("  throughput %.1f jobs/s (%.1f GB/s)  remote %lld  "
              "transfers %lld (%.3f GB)\n",
              r.throughput_jobs_per_s, r.throughput_gbps,
              static_cast<long long>(r.remote_jobs),
              static_cast<long long>(r.transfers), r.transfer_gb);
  std::printf("  spills %lld (saved %lld)  steals %lld (moved %lld jobs)  "
              "imbalance %.3f\n  routed:",
              static_cast<long long>(r.spills),
              static_cast<long long>(r.spilled_saved),
              static_cast<long long>(r.steals),
              static_cast<long long>(r.stolen_jobs), r.imbalance);
  for (std::size_t n = 0; n < r.routed.size(); ++n) {
    std::printf(" node%zu=%lld", n, static_cast<long long>(r.routed[n]));
  }
  std::printf("\n");
}

std::vector<serve::Job> make_workload(const cluster::Cluster& fleet,
                                      std::uint64_t seed, std::int64_t jobs,
                                      double rate_hz, std::uint64_t tenants) {
  serve::OpenLoopOptions load;
  load.jobs = jobs;
  load.rate_hz = rate_hz;
  load.seed = seed;
  auto out = serve::open_loop_poisson(load);
  // Tenants hash off the job id; each tenant's data lives where the
  // placement ring puts it, so hash routing is transfer-free while
  // load-aware routers pay for the locality they give up.
  for (auto& job : out) {
    job.tenant = static_cast<std::int64_t>(
        cluster::mix64(static_cast<std::uint64_t>(job.id)) % tenants);
    job.source_node =
        fleet.router().ring().owner(static_cast<std::uint64_t>(job.tenant));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("cluster_tour",
          "a 4-node GH200 fleet absorbing a one-node GPU outage");
  const auto* nodes = cli.add_int("nodes", 4, "fleet size");
  const auto* router_name =
      cli.add_string("router", "hash", "hash | least | p2c");
  const auto* jobs = cli.add_int("jobs", 400, "jobs to submit");
  const auto* rate =
      cli.add_double("rate", 120000.0, "arrival rate per node, jobs/s");
  const auto* tenants = cli.add_int("tenants", 64, "distinct tenants");
  const auto* seed = cli.add_int("seed", 42, "workload seed");
  const auto* fault_node = cli.add_int("fault-node", 1, "node that fails");
  const auto* down_from_us =
      cli.add_int("down-from-us", 200, "outage start, microseconds");
  const auto* down_until_us =
      cli.add_int("down-until-us", 1500, "outage end, microseconds");
  cli.parse_or_exit(argc, argv);

  cluster::ClusterOptions options;
  options.nodes = static_cast<int>(*nodes);
  options.router = cluster::parse_router_policy(*router_name);
  options.fault_node = static_cast<int>(*fault_node);
  options.node.queue_depth = 256;
  const double total_rate = *rate * static_cast<double>(*nodes);

  serve::ServiceModel model;

  std::printf("%lld mixed reductions at %.0f jobs/s across %lld nodes "
              "(%s router);\nnode %lld's H100 down from %.3f ms to %.3f "
              "ms\n\n",
              static_cast<long long>(*jobs), total_rate,
              static_cast<long long>(*nodes), router_name->c_str(),
              static_cast<long long>(*fault_node),
              to_millis(*down_from_us * kMicrosecond),
              to_millis(*down_until_us * kMicrosecond));

  // Healthy fleet first: the baseline the outage run is judged against.
  {
    cluster::Cluster fleet(model, options);
    fleet.submit_all(
        make_workload(fleet, static_cast<std::uint64_t>(*seed), *jobs,
                      total_rate, static_cast<std::uint64_t>(*tenants)));
    fleet.run();
    print_report("fault-free fleet:", fleet.report());
  }
  std::printf("\n");

  fault::FaultPlan plan;
  fault::OutageWindow outage;
  outage.target = fault::Target::kGpu;
  outage.window.begin = *down_from_us * kMicrosecond;
  outage.window.end = *down_until_us * kMicrosecond;
  plan.outages.push_back(outage);
  fault::Injector injector(plan, 7, {});
  options.node.injector = &injector;  // attached to fault_node only

  cluster::Cluster fleet(model, options);
  std::int64_t stolen_served = 0;
  fleet.set_on_complete([&](const cluster::ClusterRecord& record) {
    if (record.stolen && record.node != *fault_node) ++stolen_served;
  });
  fleet.submit_all(make_workload(fleet, static_cast<std::uint64_t>(*seed),
                                 *jobs, total_rate,
                                 static_cast<std::uint64_t>(*tenants)));
  fleet.run();
  const auto report = fleet.report();
  print_report("same workload through the outage:", report);

  std::printf("\nwhat the sick node did vs its rescuers:\n");
  for (std::size_t n = 0; n < report.node_reports.size(); ++n) {
    const auto& node = report.node_reports[n];
    std::printf("  node %zu%s: served %lld (gpu %lld, cpu %lld)",
                n, static_cast<int>(n) == *fault_node ? " [faulted]" : "",
                static_cast<long long>(node.served),
                static_cast<long long>(node.gpu_jobs),
                static_cast<long long>(node.cpu_jobs));
    if (node.fault_aware) {
      std::printf("  failures %lld  breaker opens %lld",
                  static_cast<long long>(node.gpu_failures),
                  static_cast<long long>(node.breaker_opens));
    }
    std::printf("\n");
  }

  std::printf("\nevery job is accounted for: %lld submitted = %lld served "
              "+ %lld rejected + %lld shed\n",
              static_cast<long long>(report.submitted),
              static_cast<long long>(report.served),
              static_cast<long long>(report.rejected),
              static_cast<long long>(report.shed));
  std::printf("when node %lld's breaker opened the fleet stole its queue: "
              "%lld jobs moved, %lld of them\nserved by healthy peers "
              "(each paying the NVLink transfer from the sick node).\n",
              static_cast<long long>(*fault_node),
              static_cast<long long>(report.stolen_jobs),
              static_cast<long long>(stolen_served));
  return 0;
}
