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
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"
#include "build_info.hpp"
#include "profile.hpp"
#include "scrape.hpp"

namespace {

using namespace ghs;

struct RunSettings {
  cluster::ClusterOptions cluster;
  serve::OpenLoopOptions open;  // rate_hz here is the TOTAL offered rate
  int tenants = 64;
  double remote_fraction = 0.0;
  fault::FaultPlan plan;
  std::uint64_t fault_seed = 7;
  std::string trace_path;
  double trace_sample = 1.0;
  std::vector<slo::Objective> slo_objectives;
  /// Sim-time metrics scraping (off unless --scrape-interval was given).
  /// Per-node series fall out of the node="i" instrument labels.
  bench::ScrapeSettings scrape;
  /// Sim-time profiling / cost attribution (off unless a --profile-* or
  /// --cost-report flag was given, keeping artefacts byte-identical).
  bench::ProfileSettings profile;
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

cluster::ClusterReport run_router(cluster::RouterPolicy router,
                                  serve::ServiceModel& model,
                                  const RunSettings& settings,
                                  std::string* slo_json,
                                  std::string* timeline_json = nullptr,
                                  std::string* cost_json = nullptr) {
  trace::Tracer tracer;
  const bool tracing = !settings.trace_path.empty();
  tracer.set_sampler(
      trace::SamplerOptions{settings.trace_sample, settings.open.seed});

  cluster::ClusterOptions options = settings.cluster;
  options.router = router;
  // Fresh injector per run: every router faces the same (plan, seed)
  // chaos, so reports are comparable and byte-reproducible.
  fault::Injector injector(settings.plan, settings.fault_seed,
                           options.node.telemetry);
  if (!settings.plan.empty()) options.node.injector = &injector;
  const bool profiling = settings.profile.enabled();
  // Declared before the fleet so every node's recorder pointer stays
  // valid through the cluster's destructor.
  std::optional<profile::Recorder> recorder;
  if (profiling) {
    recorder.emplace();
    options.node.profile = &*recorder;
  }

  cluster::Cluster fleet(model, options, tracing ? &tracer : nullptr);
  const bool scraping = settings.scrape.enabled();
  timeseries::Tsdb store;
  std::optional<timeseries::Scraper> scraper;
  if (scraping) {
    timeseries::ScraperOptions scraper_options;
    scraper_options.interval = settings.scrape.interval;
    scraper.emplace(fleet.sim(), *options.node.telemetry.metrics, store,
                    scraper_options);
    scraper->start();
  }
  std::optional<profile::Profiler> profiler;
  if (settings.profile.sampling()) {
    profile::ProfilerOptions profiler_options;
    profiler_options.interval = settings.profile.interval;
    profiler.emplace(fleet.sim(), *recorder, profiler_options, &store);
    profiler->start();
  }
  std::vector<serve::Job> jobs = serve::open_loop_poisson(settings.open);
  // Placement follows the hash ring of THIS fleet size, so the hash
  // router serves remote-eligible jobs on their data's home node.
  shard_workload(jobs, settings, fleet.router().ring());
  fleet.submit_all(std::move(jobs));
  fleet.run();
  if (scraping) scraper->finish();
  if (profiler) profiler->finish();
  if (profiling) {
    // Fleet-wide reconciliation: per-node busy totals plus interconnect
    // and journal-replay bytes must match the attributed ledger.
    const auto check =
        recorder->ledger().check(fleet.conservation_totals());
    GHS_REQUIRE(check.ok(),
                "cost attribution leaked on router '"
                    << cluster::router_policy_name(router) << "'");
  }

  if (tracing) {
    // Last router run wins the file, matching serve_loadgen's policy
    // semantics.
    std::ofstream out(settings.trace_path);
    GHS_REQUIRE(out.good(), "cannot write " << settings.trace_path);
    trace::ChromeTraceExporter exporter(tracer);
    if (scraping) {
      bench::add_counter_tracks(exporter, store, settings.scrape.interval);
    }
    if (profiler) bench::add_profile_tracks(exporter, *profiler);
    exporter.write(out);
  }
  if (profiler) {
    // Like the trace, the last router run wins the collapsed-stack file.
    bench::write_profile_file("cluster_loadgen", settings.profile, *profiler);
  }
  if (settings.profile.cost_report && cost_json != nullptr) {
    std::ostringstream cost_os;
    recorder->ledger().write_json(cost_os, fleet.conservation_totals());
    *cost_json = cost_os.str();
    std::cerr << "[" << cluster::router_policy_name(router) << "] ";
    recorder->ledger().write_table(std::cerr, /*top_k=*/5);
  }
  if (scraping) {
    // Like the trace, the last router run wins the series file.
    bench::write_series_file("cluster_loadgen", settings.scrape, store,
                             *scraper);
    if (timeline_json != nullptr) {
      timeseries::TimelineOptions timeline_options;
      timeline_options.interval = settings.scrape.interval;
      timeline_options.queue_capacity = settings.cluster.node.queue_depth;
      const auto timeline = timeseries::build_timeline(store,
                                                       timeline_options);
      std::ostringstream timeline_os;
      timeline.write_json(timeline_os);
      *timeline_json = timeline_os.str();
      std::cerr << "[" << cluster::router_policy_name(router) << "] ";
      timeline.write_table(std::cerr);
    }
  }
  if (!settings.slo_objectives.empty() && slo_json != nullptr) {
    slo::Monitor monitor(settings.slo_objectives);
    fleet.feed_slo(monitor);
    std::ostringstream slo_os;
    monitor.evaluate().write_json(slo_os);
    *slo_json = slo_os.str();
  }
  return fleet.report();
}

std::vector<slo::Objective> default_objectives(double latency_ms) {
  std::vector<slo::Objective> objectives;
  objectives.push_back(slo::Objective{
      "availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0});
  objectives.push_back(slo::Objective{
      "latency_p99", slo::ObjectiveKind::kLatencyQuantile, 0.99, latency_ms});
  return objectives;
}

void write_fixed(std::ostream& os, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  os << buf;
}

/// Parses a --drain-at schedule: `node@time` entries separated by commas
/// or whitespace, times in fault-plan duration grammar ("300us", "2ms").
std::vector<cluster::DrainSpec> parse_drains(const std::string& text) {
  std::string normalized = text;
  for (char& c : normalized) {
    if (c == ',') c = ' ';
  }
  std::istringstream in(normalized);
  std::vector<cluster::DrainSpec> drains;
  std::string entry;
  while (in >> entry) {
    const auto at = entry.find('@');
    GHS_REQUIRE(at != std::string::npos && at > 0 && at + 1 < entry.size(),
                "drain spec '" << entry << "' must be node@time");
    cluster::DrainSpec spec;
    std::size_t used = 0;
    spec.node = std::stoi(entry.substr(0, at), &used);
    GHS_REQUIRE(used == at && spec.node >= 0,
                "drain spec '" << entry << "' needs a node index >= 0");
    spec.at = fault::parse_duration(entry.substr(at + 1));
    GHS_REQUIRE(spec.at > 0, "drain spec '" << entry
                                            << "' needs a positive time");
    drains.push_back(spec);
  }
  return drains;
}

/// Satellite validation: every node-index flag must name a node that
/// exists in the --nodes fleet, or the run exits 2 Cli-style.
void require_node_index(const std::string& program, const std::string& flag,
                        int node, int nodes) {
  if (node < 0 || node >= nodes) {
    std::cerr << program << ": " << flag << " targets node " << node
              << ", out of range for --nodes=" << nodes << " (valid: 0..."
              << nodes - 1 << ")\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("cluster_loadgen",
          "load generator for the sharded reduction-service fleet");
  const auto* nodes = cli.add_int("nodes", 4, "fleet size");
  const auto* router = cli.add_string(
      "router", "least", "passthrough|hash|least|p2c|all (all = the last 3)");
  const auto* policy =
      cli.add_string("policy", "fifo", "per-node scheduler: fifo|sjf|bandwidth");
  const auto* rate = cli.add_double(
      "rate", 100000.0, "PER-NODE arrival rate, jobs/s (total = rate*nodes)");
  const auto* jobs = cli.add_int("jobs", 2000, "total jobs across the fleet");
  const auto* depth = cli.add_int("depth", 64, "per-node admission depth");
  const auto* seed = cli.add_int("seed", 42, "workload RNG seed");
  const auto* tenants = cli.add_int("tenants", 64, "distinct tenant ids");
  const auto* remote_fraction = cli.add_double(
      "remote-fraction", 0.0,
      "fraction of jobs whose source array lives on the tenant's home node");
  const auto* min_log2 =
      cli.add_int("min-log2", 16, "smallest job, log2(elements)");
  const auto* max_log2 =
      cli.add_int("max-log2", 21, "largest job, log2(elements)");
  const auto* deadline_us =
      cli.add_int("deadline-us", 0, "relative deadline (0 = best effort)");
  const auto* um_fraction = cli.add_double(
      "um-fraction", 0.0, "fraction of jobs over unified-memory buffers");
  const auto* no_batch = cli.add_flag("no-batch", "disable launch batching");
  const auto* no_cpu =
      cli.add_flag("no-cpu", "GPU-only device pools (no Grace CPU)");
  const auto* no_spill =
      cli.add_flag("no-spill", "rejections stay local (no spill re-route)");
  const auto* no_steal =
      cli.add_flag("no-steal", "keep queued jobs on a breaker-open node");
  const auto* link_gbps = cli.add_double(
      "link-gbps", 450.0, "per-direction inter-node link bandwidth, GB/s");
  const auto* plan_path = cli.add_string(
      "plan", "", "fault-plan file driving chaos on --fault-node");
  const auto* fault_node =
      cli.add_int("fault-node", 0, "node the fault plan strikes");
  const auto* fault_seed =
      cli.add_int("fault-seed", 7, "fault-injector RNG seed");
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
  const auto* trace_path =
      cli.add_string("trace", "", "write a Chrome-trace JSON timeline here");
  const auto* trace_sample = cli.add_double(
      "trace-sample", 1.0, "fraction of job traces kept (1.0 = all)");
  const auto* metrics_out = cli.add_string(
      "metrics-out", "",
      "write Prometheus metrics here (+ JSON snapshot at FILE.json)");
  const auto* slo = cli.add_flag(
      "slo", "evaluate SLOs per router and append an slo_report section");
  const auto* slo_latency_ms = cli.add_double(
      "slo-latency-ms", 1.0, "latency_p99 objective threshold, milliseconds");
  const auto* scrape_interval = cli.add_int(
      "scrape-interval", 0,
      "sim-time metrics scrape interval, microseconds (0 = off)");
  const auto* series_out = cli.add_string(
      "series-out", "",
      "write the scraped time-series dump here (.csv for CSV)");
  const auto* profile_interval = cli.add_int(
      "profile-interval", 0,
      "sim-time profiler sample interval, microseconds (0 = off)");
  const auto* profile_out = cli.add_string(
      "profile-out", "",
      "write collapsed stacks here (flamegraph.pl-compatible)");
  const auto* cost_report = cli.add_flag(
      "cost-report",
      "append per-tenant cost attribution to the report (+ stderr table)");
  cli.parse_or_exit(argc, argv);

  const auto scrape = bench::scrape_settings_or_exit(
      "cluster_loadgen", *scrape_interval, *series_out);
  const auto profile = bench::profile_settings_or_exit(
      "cluster_loadgen", *profile_interval, *profile_out, *cost_report);
  bench::require_fraction("cluster_loadgen", "--trace-sample", *trace_sample);
  bench::require_fraction("cluster_loadgen", "--um-fraction", *um_fraction);
  bench::require_fraction("cluster_loadgen", "--remote-fraction",
                          *remote_fraction);
  bench::require_writable_path("cluster_loadgen", *metrics_out);
  bench::require_writable_path("cluster_loadgen", *trace_path);

  if (*nodes < 1) {
    std::cerr << "cluster_loadgen: --nodes must be >= 1, got " << *nodes
              << "\n";
    return 2;
  }
  bench::require_positive("cluster_loadgen", "--jobs", *jobs);
  bench::require_positive("cluster_loadgen", "--rate", *rate);
  bench::require_positive("cluster_loadgen", "--depth", *depth);
  if (*heartbeat_us < 0) {
    std::cerr << "cluster_loadgen: --heartbeat-us must be >= 0, got "
              << *heartbeat_us << "\n";
    return 2;
  }
  require_node_index("cluster_loadgen", "--fault-node",
                     static_cast<int>(*fault_node), static_cast<int>(*nodes));
  fault::NodeCrashPlan crashes;
  std::vector<cluster::DrainSpec> drains;
  try {
    if (!crash_plan->empty()) crashes = fault::parse_crash_plan(*crash_plan);
    if (!drain_at->empty()) drains = parse_drains(*drain_at);
  } catch (const Error& error) {
    std::cerr << "cluster_loadgen: " << error.what() << "\n";
    return 2;
  }
  for (const auto& crash : crashes.crashes) {
    require_node_index("cluster_loadgen", "--crash-plan", crash.node,
                       static_cast<int>(*nodes));
  }
  for (const auto& drain : drains) {
    require_node_index("cluster_loadgen", "--drain-at", drain.node,
                       static_cast<int>(*nodes));
  }

  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  const bool metrics = !metrics_out->empty();
  const bool scraping = scrape.enabled();
  telemetry::Sink sink = (metrics || scraping)
                             ? telemetry::Sink{&registry, &flight}
                             : telemetry::Sink{};
  sink.timeline = scraping;

  RunSettings settings;
  settings.cluster.nodes = static_cast<int>(*nodes);
  settings.cluster.policy = *policy;
  settings.cluster.fault_node = static_cast<int>(*fault_node);
  settings.cluster.spill = !*no_spill;
  settings.cluster.steal = !*no_steal;
  settings.cluster.interconnect.link_bw = Bandwidth::from_gbps(*link_gbps);
  settings.cluster.node.queue_depth = static_cast<std::size_t>(*depth);
  settings.cluster.node.batching.enable = !*no_batch;
  settings.cluster.node.use_cpu = !*no_cpu;
  settings.cluster.node.telemetry = sink;
  settings.cluster.crash_plan = crashes;
  settings.cluster.drains = drains;
  if (*heartbeat_us > 0) {
    settings.cluster.health.enabled = true;
    settings.cluster.health.interval = *heartbeat_us * kMicrosecond;
  }
  const bool membership = !crashes.empty() || !drains.empty() ||
                          settings.cluster.health.enabled;
  if (membership && *router == "passthrough") {
    std::cerr << "cluster_loadgen: --crash-plan/--drain-at/--heartbeat-us "
                 "need a real fleet router, not passthrough\n";
    return 2;
  }

  serve::WorkloadShape shape;
  shape.min_log2_elements = static_cast<int>(*min_log2);
  shape.max_log2_elements = static_cast<int>(*max_log2);
  shape.deadline = *deadline_us * kMicrosecond;
  shape.um_fraction = *um_fraction;
  settings.open.shape = shape;
  settings.open.rate_hz = *rate * static_cast<double>(*nodes);
  settings.open.jobs = *jobs;
  settings.open.seed = static_cast<std::uint64_t>(*seed);

  settings.tenants = static_cast<int>(*tenants);
  settings.remote_fraction = *remote_fraction;
  if (!plan_path->empty()) settings.plan = fault::load_plan(*plan_path);
  settings.fault_seed = static_cast<std::uint64_t>(*fault_seed);
  settings.trace_path = *trace_path;
  settings.trace_sample = *trace_sample;
  settings.scrape = scrape;
  settings.profile = profile;
  if (*slo) settings.slo_objectives = default_objectives(*slo_latency_ms);

  std::vector<cluster::RouterPolicy> routers;
  if (*router == "all") {
    routers = {cluster::RouterPolicy::kHash, cluster::RouterPolicy::kLeast,
               cluster::RouterPolicy::kP2c};
  } else {
    routers = {cluster::parse_router_policy(*router)};
  }

  serve::ServiceModelOptions model_options;
  model_options.telemetry = sink;
  serve::ServiceModel model(model_options);

  std::ostringstream out;
  out << "{";
  bench::write_build_info(out);
  out << ",\"workload\":{\"nodes\":" << *nodes << ",\"policy\":\"" << *policy
      << "\",\"rate_hz_per_node\":" << *rate
      << ",\"jobs\":" << *jobs << ",\"seed\":" << *seed
      << ",\"tenants\":" << *tenants << ",\"remote_fraction\":"
      << *remote_fraction << ",\"min_log2_elements\":" << *min_log2
      << ",\"max_log2_elements\":" << *max_log2
      << ",\"deadline_us\":" << *deadline_us
      << ",\"um_fraction\":" << *um_fraction
      << ",\"queue_depth\":" << *depth << ",\"spill\":"
      << (settings.cluster.spill ? "true" : "false") << ",\"steal\":"
      << (settings.cluster.steal ? "true" : "false") << ",\"fault_plan\":\""
      << (plan_path->empty() ? "none" : *plan_path) << "\"";
  // Echoed only when scraping, so unscraped reports keep their exact bytes.
  if (scraping) out << ",\"scrape_interval_us\":" << *scrape_interval;
  if (profile.sampling()) {
    out << ",\"profile_interval_us\":" << *profile_interval;
  }
  // Membership knobs echoed only when the layer is on, for the same reason.
  if (membership) {
    out << ",\"crash_plan\":\""
        << (crashes.empty() ? "none" : fault::format_crash_plan(crashes))
        << "\",\"drains\":" << drains.size()
        << ",\"heartbeat_us\":" << *heartbeat_us;
  }
  out << "},\"routers\":[";

  std::vector<cluster::ClusterReport> reports(routers.size());
  std::vector<std::string> slo_reports(routers.size());
  std::vector<std::string> timeline_reports(routers.size());
  std::vector<std::string> cost_reports(routers.size());
  for (std::size_t i = 0; i < routers.size(); ++i) {
    reports[i] = run_router(routers[i], model, settings, &slo_reports[i],
                            scraping ? &timeline_reports[i] : nullptr,
                            profile.cost_report ? &cost_reports[i] : nullptr);
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
      out << "{\"router\":\"" << r.router << "\",\"jobs_per_s\":";
      write_fixed(out, r.throughput_jobs_per_s);
      out << ",\"gbps\":";
      write_fixed(out, r.throughput_gbps);
      out << ",\"p99_ms\":";
      write_fixed(out, r.latency.pct.p99);
      out << ",\"rejected\":" << r.rejected << ",\"remote_jobs\":"
          << r.remote_jobs << ",\"imbalance\":";
      write_fixed(out, r.imbalance);
      out << "}";
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
    single.cluster.enable_membership = false;
    single.open.rate_hz = *rate;
    single.open.jobs = std::max<std::int64_t>(*jobs / *nodes, 1);
    single.scrape = bench::ScrapeSettings{};
    // The fleet run owns the collapsed-stack file and the cost section;
    // the denominator still self-checks conservation when profiling.
    single.profile.profile_out.clear();
    const cluster::ClusterReport single_report = run_router(
        cluster::RouterPolicy::kLeast, model, single, nullptr);
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
    out << ",\"scaling\":{\"nodes\":" << *nodes << ",\"single_jobs_per_s\":";
    write_fixed(out, single_report.throughput_jobs_per_s);
    out << ",\"fleet_jobs_per_s\":";
    write_fixed(out, fleet.throughput_jobs_per_s);
    out << ",\"speedup\":";
    write_fixed(out, speedup);
    out << ",\"efficiency\":";
    write_fixed(out, speedup / static_cast<double>(*nodes));
    out << ",\"single_p99_ms\":";
    write_fixed(out, single_report.latency.pct.p99);
    out << ",\"fleet_p99_ms\":";
    write_fixed(out, fleet.latency.pct.p99);
    out << ",\"p99_ratio\":";
    write_fixed(out, p99_ratio);
    out << "}";
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

  if (*slo) {
    out << ",\"slo_report\":[";
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"router\":\"" << cluster::router_policy_name(routers[i])
          << "\",\"slo\":" << slo_reports[i] << "}";
    }
    out << "]";
  }
  if (scraping) {
    out << ",\"timeline_report\":[";
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"router\":\"" << cluster::router_policy_name(routers[i])
          << "\",\"timeline\":" << timeline_reports[i] << "}";
    }
    out << "]";
  }
  if (profile.cost_report) {
    out << ",\"cost_report\":[";
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"router\":\"" << cluster::router_policy_name(routers[i])
          << "\",\"cost\":" << cost_reports[i] << "}";
    }
    out << "]";
  }
  if (metrics) {
    out << ",\"metrics\":";
    telemetry::write_json_snapshot(out, registry);
  }
  out << "}";
  std::cout << out.str() << "\n";

  if (metrics) {
    {
      telemetry::ExportOptions prom_options;
      prom_options.include_volatile = true;
      std::ofstream prom(*metrics_out);
      GHS_REQUIRE(prom.good(), "cannot write " << *metrics_out);
      telemetry::write_prometheus(prom, registry, prom_options);
    }
    const std::string json_path = *metrics_out + ".json";
    std::ofstream snapshot(json_path);
    GHS_REQUIRE(snapshot.good(), "cannot write " << json_path);
    telemetry::write_json_snapshot(snapshot, registry);
    snapshot << "\n";
  }
  return 0;
}
