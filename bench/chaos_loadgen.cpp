// Chaos load generator: serve_loadgen plus a fault::Injector.
//
// Runs the same mixed C1-C4 workload through the reduction service while a
// FaultPlan degrades the simulated hardware — transient kernel failures,
// bandwidth brown-outs, device-down outages, migration stalls — and the
// service defends itself with retries, circuit breakers, deadline-aware
// shedding, and CPU fallback. The report is the serve_loadgen JSON format
// with the fault-handling keys (retries, gpu_failures, breaker_opens,
// shed, fallback_cpu_jobs) appended to each policy report:
//
//   $ ./bench/chaos_loadgen                        # built-in chaos plan
//   $ ./bench/chaos_loadgen --plan=outage.plan --fault-seed=9
//   $ ./bench/chaos_loadgen --policy=all --metrics-out=chaos.prom
//   $ ./bench/chaos_loadgen --trace=chaos.json --slo --slo-latency-ms=0.25
//   $ ./bench/chaos_loadgen --perf
//
// Every run asserts the zero-lost-jobs invariant: every submitted job is
// served, rejected at admission, or shed — chaos never loses work. Two
// runs from the same (plan, seed) emit byte-identical reports.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "build_info.hpp"
#include "profile.hpp"
#include "scrape.hpp"
#include "serve_perf.hpp"

namespace {

using namespace ghs;

// Default chaos: a mid-run GPU outage (trips the breaker, forces CPU
// fallback), a sprinkle of transient kernel faults, and a tail brown-out
// with a migration stall for unified jobs. Sized against the default
// open-loop workload (200 jobs at 100k jobs/s = ~2 ms of arrivals plus
// queue drain).
constexpr const char* kBuiltinPlan =
    "# chaos_loadgen built-in plan\n"
    "kernel-fault gpu p=0.02\n"
    "device-down gpu from=1ms until=2500us\n"
    "bandwidth gpu scale=0.5 from=3ms until=5ms\n"
    "migration-stall scale=0.25 from=3ms until=5ms\n";

struct RunSettings {
  bool closed = false;
  serve::OpenLoopOptions open;
  serve::ClosedLoopOptions closed_opts;
  serve::ServiceOptions service;
  std::string trace_path;
  /// Head-sampling rate for the tracer; 1.0 keeps every span (and leaves
  /// the trace file byte-identical to a sampler-free run).
  double trace_sample = 1.0;
  /// SLO objectives to evaluate per policy run; empty = no SLO section.
  std::vector<slo::Objective> slo_objectives;
  /// Sim-time metrics scraping (off unless --scrape-interval was given).
  bench::ScrapeSettings scrape;
  /// Sim-time profiling / cost attribution (off unless a --profile-* or
  /// --cost-report flag was given, keeping artefacts byte-identical).
  bench::ProfileSettings profile;
};

serve::ServiceReport run_policy(const std::string& name,
                                serve::ServiceModel& model,
                                const fault::FaultPlan& plan,
                                std::uint64_t fault_seed,
                                const RunSettings& settings,
                                std::string* slo_json,
                                std::string* timeline_json,
                                std::string* cost_json,
                                bench::PerfSample* perf) {
  trace::Tracer tracer;
  const bool tracing = !settings.trace_path.empty();
  tracer.set_sampler(
      trace::SamplerOptions{settings.trace_sample, settings.open.seed});
  // A fresh injector per policy run replays the chaos campaign from
  // (plan, seed) for every policy, so reports are comparable and two
  // invocations of this bench are byte-identical.
  fault::Injector injector(plan, fault_seed, settings.service.telemetry);
  const bool profiling = settings.profile.enabled();
  // Declared before the service so the pool's recorder pointer stays
  // valid through the service's destructor.
  std::optional<profile::Recorder> recorder;
  serve::ServiceOptions options = settings.service;
  options.injector = &injector;
  if (profiling) {
    recorder.emplace();
    options.profile = &*recorder;
  }
  serve::ReductionService service(serve::make_policy(name, model), model,
                                  options, tracing ? &tracer : nullptr);
  const bool scraping = settings.scrape.enabled();
  timeseries::Tsdb store;
  std::optional<timeseries::Scraper> scraper;
  if (scraping) {
    timeseries::ScraperOptions scraper_options;
    scraper_options.interval = settings.scrape.interval;
    scraper.emplace(service.sim(), *settings.service.telemetry.metrics, store,
                    scraper_options);
    scraper->start();
  }
  std::optional<profile::Profiler> profiler;
  if (settings.profile.sampling()) {
    profile::ProfilerOptions profiler_options;
    profiler_options.interval = settings.profile.interval;
    profiler.emplace(service.sim(), *recorder, profiler_options, &store);
    profiler->start();
  }
  const bench::WallTimer timer;
  if (settings.closed) {
    serve::run_closed_loop(service, settings.closed_opts);
  } else {
    service.submit_all(serve::open_loop_poisson(settings.open));
    service.run();
  }
  if (scraping) scraper->finish();
  if (profiler) profiler->finish();
  if (profiling) {
    // Even under chaos — failed launches, retries, CPU fallback — the
    // attributed time/bytes must reconcile with the pool's own totals.
    const auto check =
        recorder->ledger().check(service.conservation_totals());
    GHS_REQUIRE(check.ok(),
                "cost attribution leaked on policy '" << name << "'");
  }
  if (perf != nullptr) {
    perf->policy = name;
    perf->wall_seconds = timer.elapsed_seconds();
    perf->sim_events = service.sim().events_processed();
    perf->jobs_served =
        static_cast<std::uint64_t>(service.records().size());
    perf->peak_queue_size = service.sim().peak_queue_size();
  }
  if (tracing && tracer.sampler_active() &&
      settings.service.telemetry.metrics != nullptr) {
    // Sampler drops are a pure function of (seed, trace ids), so unlike
    // the wall gauge this counter may live in the deterministic snapshot.
    settings.service.telemetry.metrics
        ->counter("ghs_trace_dropped_by_sampler_total", {},
                  "Span/instant records rejected by the trace head sampler")
        .inc(tracer.dropped_by_sampler());
  }
  if (tracing) {
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
    // Like the trace, the last policy run wins the collapsed-stack file.
    bench::write_profile_file("chaos_loadgen", settings.profile, *profiler);
  }
  if (settings.profile.cost_report && cost_json != nullptr) {
    std::ostringstream cost_os;
    recorder->ledger().write_json(cost_os, service.conservation_totals());
    *cost_json = cost_os.str();
    std::cerr << "[" << name << "] ";
    recorder->ledger().write_table(std::cerr, /*top_k=*/5);
  }
  if (scraping) {
    // Like the trace, the last policy run wins the series file.
    bench::write_series_file("chaos_loadgen", settings.scrape, store,
                             *scraper);
    if (timeline_json != nullptr) {
      timeseries::TimelineOptions timeline_options;
      timeline_options.interval = settings.scrape.interval;
      timeline_options.queue_capacity = settings.service.queue_depth;
      const auto timeline = timeseries::build_timeline(store,
                                                       timeline_options);
      std::ostringstream timeline_os;
      timeline.write_json(timeline_os);
      *timeline_json = timeline_os.str();
      std::cerr << "[" << name << "] ";
      timeline.write_table(std::cerr);
    }
  }
  if (!settings.slo_objectives.empty() && slo_json != nullptr) {
    slo::Monitor monitor(settings.slo_objectives);
    monitor.feed(service);
    std::ostringstream slo_os;
    monitor.evaluate().write_json(slo_os);
    *slo_json = slo_os.str();
  }
  const auto report = service.report();
  // Zero-lost-jobs invariant: chaos may delay, degrade, or shed work, but
  // every admitted job must be accounted for.
  GHS_CHECK(report.submitted ==
                report.served + report.rejected + report.shed,
            "lost jobs under " << name << ": submitted=" << report.submitted
                               << " served=" << report.served
                               << " rejected=" << report.rejected
                               << " shed=" << report.shed);
  return report;
}

/// The stock objective set for --slo: three-nines availability plus a p99
/// latency bound.
std::vector<slo::Objective> default_objectives(double latency_ms) {
  std::vector<slo::Objective> objectives;
  objectives.push_back(
      slo::Objective{"availability", slo::ObjectiveKind::kAvailability,
                     0.999, 0.0});
  objectives.push_back(
      slo::Objective{"latency_p99", slo::ObjectiveKind::kLatencyQuantile,
                     0.99, latency_ms});
  return objectives;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("chaos_loadgen",
          "serve-layer load generator under a deterministic fault plan");
  const auto* policy =
      cli.add_string("policy", "fifo", "all|fifo|sjf|bandwidth");
  const auto* plan_path = cli.add_string(
      "plan", "", "fault-plan file (empty = built-in chaos plan)");
  const auto* fault_seed =
      cli.add_int("fault-seed", 7, "fault-injector RNG seed");
  const auto* rate =
      cli.add_double("rate", 100000.0, "open-loop arrival rate, jobs/s");
  const auto* jobs = cli.add_int("jobs", 200, "total jobs to submit");
  const auto* depth = cli.add_int("depth", 64, "admission queue depth");
  const auto* seed = cli.add_int("seed", 42, "workload RNG seed");
  const auto* min_log2 =
      cli.add_int("min-log2", 16, "smallest job, log2(elements)");
  const auto* max_log2 =
      cli.add_int("max-log2", 21, "largest job, log2(elements)");
  const auto* deadline_us =
      cli.add_int("deadline-us", 0, "relative deadline (0 = best effort)");
  const auto* closed = cli.add_flag("closed", "closed loop instead of open");
  const auto* tenants = cli.add_int("tenants", 8, "closed-loop tenants");
  const auto* think_us =
      cli.add_int("think-us", 0, "closed-loop think time between jobs");
  const auto* no_batch = cli.add_flag("no-batch", "disable launch batching");
  const auto* no_cpu =
      cli.add_flag("no-cpu", "GPU-only device pool (no Grace CPU)");
  const auto* trace_path =
      cli.add_string("trace", "", "write a Chrome-trace JSON timeline here");
  const auto* trace_sample = cli.add_double(
      "trace-sample", 1.0,
      "fraction of job traces kept by the head sampler (1.0 = all)");
  const auto* um_fraction = cli.add_double(
      "um-fraction", 0.0,
      "fraction of jobs over unified-memory buffers (GPU-only placement)");
  const auto* perf = cli.add_flag(
      "perf", "append wall-clock event-core throughput (machine-dependent)");
  const auto* max_attempts =
      cli.add_int("max-attempts", 4, "launch attempts per job, incl. first");
  const auto* retry_base_us =
      cli.add_int("retry-base-us", 50, "retry backoff base, microseconds");
  const auto* retry_cap_us =
      cli.add_int("retry-cap-us", 2000, "retry backoff cap, microseconds");
  const auto* retry_jitter = cli.add_double(
      "retry-jitter", 0.25, "jitter fraction added to each backoff");
  const auto* breaker_threshold = cli.add_int(
      "breaker-threshold", 3, "consecutive failures that open the breaker");
  const auto* breaker_open_us = cli.add_int(
      "breaker-open-us", 500, "breaker cool-down before half-open probe");
  const auto* metrics_out = cli.add_string(
      "metrics-out", "",
      "write Prometheus metrics here (+ JSON snapshot at FILE.json)");
  const auto* slo = cli.add_flag(
      "slo", "evaluate SLOs per policy and append an slo_report section");
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
      "chaos_loadgen", *scrape_interval, *series_out);
  const auto profile = bench::profile_settings_or_exit(
      "chaos_loadgen", *profile_interval, *profile_out, *cost_report);
  bench::require_positive("chaos_loadgen", "--jobs", *jobs);
  bench::require_positive("chaos_loadgen", "--rate", *rate);
  bench::require_positive("chaos_loadgen", "--depth", *depth);
  bench::require_positive("chaos_loadgen", "--max-attempts", *max_attempts);
  bench::require_fraction("chaos_loadgen", "--trace-sample", *trace_sample);
  bench::require_fraction("chaos_loadgen", "--um-fraction", *um_fraction);
  bench::require_writable_path("chaos_loadgen", *metrics_out);
  bench::require_writable_path("chaos_loadgen", *trace_path);

  const auto wall_start = std::chrono::steady_clock::now();

  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  const bool metrics = !metrics_out->empty();
  const bool scraping = scrape.enabled();
  telemetry::Sink sink = (metrics || scraping)
                             ? telemetry::Sink{&registry, &flight}
                             : telemetry::Sink{};
  sink.timeline = scraping;

  const fault::FaultPlan plan = plan_path->empty()
                                    ? fault::parse_plan(kBuiltinPlan)
                                    : fault::load_plan(*plan_path);

  RunSettings settings;
  settings.closed = *closed;
  settings.trace_path = *trace_path;
  settings.scrape = scrape;
  settings.profile = profile;

  serve::WorkloadShape shape;
  shape.min_log2_elements = static_cast<int>(*min_log2);
  shape.max_log2_elements = static_cast<int>(*max_log2);
  shape.deadline = *deadline_us * kMicrosecond;
  shape.um_fraction = *um_fraction;

  settings.open.shape = shape;
  settings.open.rate_hz = *rate;
  settings.open.jobs = *jobs;
  settings.open.seed = static_cast<std::uint64_t>(*seed);

  settings.closed_opts.shape = shape;
  settings.closed_opts.tenants = static_cast<int>(*tenants);
  settings.closed_opts.jobs = *jobs;
  settings.closed_opts.think_time = *think_us * kMicrosecond;
  settings.closed_opts.seed = static_cast<std::uint64_t>(*seed);

  settings.service.queue_depth = static_cast<std::size_t>(*depth);
  settings.service.batching.enable = !*no_batch;
  settings.service.use_cpu = !*no_cpu;
  settings.service.telemetry = sink;
  settings.trace_sample = *trace_sample;
  settings.service.retry.max_attempts = static_cast<int>(*max_attempts);
  settings.service.retry.backoff_base = *retry_base_us * kMicrosecond;
  settings.service.retry.backoff_cap = *retry_cap_us * kMicrosecond;
  settings.service.retry.jitter = *retry_jitter;
  settings.service.breaker.failure_threshold =
      static_cast<int>(*breaker_threshold);
  settings.service.breaker.open_duration = *breaker_open_us * kMicrosecond;
  if (*slo) settings.slo_objectives = default_objectives(*slo_latency_ms);

  std::vector<std::string> policies;
  if (*policy == "all") {
    policies = {"fifo", "sjf", "bandwidth"};
  } else {
    policies = {*policy};
  }

  serve::ServiceModelOptions model_options;
  model_options.telemetry = sink;
  serve::ServiceModel model(model_options);

  std::ostringstream out;
  out << "{";
  bench::write_build_info(out);
  out << ",\"workload\":{\"mode\":\""
      << (settings.closed ? "closed" : "open") << "\"";
  if (settings.closed) {
    out << ",\"tenants\":" << settings.closed_opts.tenants
        << ",\"think_us\":" << *think_us;
  } else {
    out << ",\"rate_hz\":" << *rate;
  }
  out << ",\"jobs\":" << *jobs << ",\"seed\":" << *seed
      << ",\"min_log2_elements\":" << *min_log2
      << ",\"max_log2_elements\":" << *max_log2
      << ",\"deadline_us\":" << *deadline_us
      << ",\"um_fraction\":" << *um_fraction << ",\"queue_depth\":" << *depth
      << ",\"batching\":" << (settings.service.batching.enable ? "true"
                                                               : "false")
      << ",\"cpu_pool\":" << (settings.service.use_cpu ? "true" : "false");
  // Echoed only when scraping, so unscraped reports keep their exact bytes.
  if (scraping) out << ",\"scrape_interval_us\":" << *scrape_interval;
  if (profile.sampling()) {
    out << ",\"profile_interval_us\":" << *profile_interval;
  }
  out << "},\"fault\":{\"plan\":\""
      << (plan_path->empty() ? "builtin" : *plan_path)
      << "\",\"seed\":" << *fault_seed << ",\"specs\":" << plan.size()
      << ",\"max_attempts\":" << *max_attempts
      << ",\"breaker_threshold\":" << *breaker_threshold
      << "},\"policies\":[";

  serve::ServiceReport fifo_report;
  serve::ServiceReport bandwidth_report;
  bool have_fifo = false;
  bool have_bandwidth = false;
  std::vector<std::string> slo_reports(policies.size());
  std::vector<std::string> timeline_reports(policies.size());
  std::vector<std::string> cost_reports(policies.size());
  std::vector<bench::PerfSample> perf_samples(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto report =
        run_policy(policies[i], model, plan,
                   static_cast<std::uint64_t>(*fault_seed), settings,
                   &slo_reports[i],
                   scraping ? &timeline_reports[i] : nullptr,
                   profile.cost_report ? &cost_reports[i] : nullptr,
                   *perf ? &perf_samples[i] : nullptr);
    if (i > 0) out << ",";
    report.write_json(out);
    if (policies[i] == "fifo") {
      fifo_report = report;
      have_fifo = true;
    } else if (policies[i] == "bandwidth") {
      bandwidth_report = report;
      have_bandwidth = true;
    }
  }
  out << "]";
  if (*slo) {
    out << ",\"slo_report\":[";
    for (std::size_t i = 0; i < policies.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"policy\":\"" << policies[i] << "\",\"slo\":"
          << slo_reports[i] << "}";
    }
    out << "]";
  }
  if (scraping) {
    out << ",\"timeline_report\":[";
    for (std::size_t i = 0; i < policies.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"policy\":\"" << policies[i] << "\",\"timeline\":"
          << timeline_reports[i] << "}";
    }
    out << "]";
  }
  if (profile.cost_report) {
    out << ",\"cost_report\":[";
    for (std::size_t i = 0; i < policies.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"policy\":\"" << policies[i] << "\",\"cost\":"
          << cost_reports[i] << "}";
    }
    out << "]";
  }
  if (have_fifo && have_bandwidth &&
      fifo_report.throughput_gbps > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  bandwidth_report.throughput_gbps /
                      fifo_report.throughput_gbps);
    out << ",\"comparison\":{\"fifo_gbps\":" << fifo_report.throughput_gbps
        << ",\"bandwidth_gbps\":" << bandwidth_report.throughput_gbps
        << ",\"bandwidth_over_fifo\":" << buf << "}";
  }
  if (*perf) {
    // Wall-clock section: machine-dependent by design, so it only exists
    // behind --perf and never perturbs byte-identity checks on the
    // default report.
    out << ",\"perf\":";
    bench::write_perf_json(out, perf_samples);
  }
  if (metrics) {
    // Wall time is real-world and run-dependent, so the gauge is volatile:
    // present in the Prometheus exposition, absent from the JSON snapshot.
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    registry
        .gauge("ghs_bench_wall_seconds", {},
               "wall-clock duration of this bench process",
               /*volatile_instrument=*/true)
        .set(wall.count());
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
