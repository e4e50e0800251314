// Load generator for the ghs::serve request-serving layer.
//
// Synthesises a mixed C1-C4 workload (open-loop Poisson arrivals by
// default, closed-loop with --closed), serves it under one or more
// scheduler policies, and emits a JSON throughput/latency report:
//
//   $ ./bench/serve_loadgen                         # fifo vs sjf vs bandwidth
//   $ ./bench/serve_loadgen --policy=bandwidth --rate=200000 --jobs=500
//   $ ./bench/serve_loadgen --trace=serve.json      # Chrome-trace timeline
//   $ ./bench/serve_loadgen --slo --slo-latency-ms=0.5   # burn-rate report
//   $ ./bench/serve_loadgen --perf                  # event-core throughput
//   $ ./bench/serve_loadgen --trace=t.json --trace-sample=0.01  # 1% of jobs
//   $ ./bench/serve_loadgen --plan=builtin --policy=fifo  # built-in chaos
//   $ ./bench/serve_loadgen --plan=outage.plan --fault-seed=9
//
// The report is one JSON object: "workload" echoes the generator settings,
// "fault" (only with --plan) the fault plan and the retry and breaker
// settings, "policies" holds one serve report per policy (p50/p95/p99
// latency and queue wait, rejected count, batching and placement counters,
// plus retries, gpu_failures, breaker_opens, shed and fallback_cpu_jobs
// under a plan), and "comparison" contrasts bandwidth-aware against FIFO
// when both ran.
//
// --plan replays a deterministic fault plan -- transient kernel failures,
// bandwidth brown-outs, device-down outages, migration stalls -- against
// every policy run, and the service defends itself with retries, circuit
// breakers, deadline-aware shedding, and CPU fallback. Every run checks
// that each submitted job is served, rejected at admission, or shed; two
// runs from the same (plan, seed) emit byte-identical reports.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/util/strings.hpp"
#include "alloc_counter.hpp"
#include "harness.hpp"
#include "serve_perf.hpp"

namespace {

using namespace ghs;

struct RunSettings {
  bool closed = false;
  serve::OpenLoopOptions open;
  serve::ClosedLoopOptions closed_opts;
  serve::ServiceOptions service;
};

serve::ServiceReport run_policy(bench::Harness& harness,
                                const std::string& name,
                                const RunSettings& settings,
                                bench::RunSections* sections,
                                bench::PerfSample* perf) {
  serve::ServiceOptions options = settings.service;
  bench::Run run(harness, harness.fault_plan(), options, harness.outputs());
  serve::ReductionService service(serve::make_policy(name, harness.model()),
                                  harness.model(), options, run.tracer());
  run.start(service.sim());
  const std::uint64_t allocations = bench::allocation_count();
  const bench::WallTimer timer;
  if (settings.closed) {
    serve::run_closed_loop(service, settings.closed_opts);
  } else {
    service.submit_all(serve::open_loop_poisson(settings.open));
    service.run();
  }
  if (perf != nullptr) {
    perf->policy = name;
    perf->wall_seconds = timer.elapsed_seconds();
    perf->allocations = bench::allocation_count() - allocations;
    perf->sim_events = service.sim().events_processed();
    perf->jobs_served =
        static_cast<std::uint64_t>(service.outcomes().served.size());
    perf->peak_queue_size = service.sim().peak_queue_size();
    perf->peak_rss_mb = bench::peak_rss_mb();
  }
  return run.finish(name, service, sections);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(
      {.program = "serve_loadgen",
       .description =
           "open/closed-loop load generator for the reduction service",
       .run_key = "policy",
       .policy = "all",
       .policy_help = "all|fifo|sjf|bandwidth",
       .jobs = 200});
  const auto* closed =
      harness.cli.add_flag("closed", "closed loop instead of open");
  const auto* tenants =
      harness.cli.add_int("tenants", 8, "closed-loop tenants");
  const auto* think_us = harness.cli.add_int(
      "think-us", 0, "closed-loop think time between jobs");
  const auto* perf = harness.cli.add_flag(
      "perf",
      "append wall-clock event-core throughput and peak RSS "
      "(machine-dependent)");
  harness.parse_or_exit(argc, argv);

  const std::string& program = harness.program();
  RunSettings settings;
  if (*closed) {
    // Each tenant keeps one job in flight, so the loop needs at least one
    // job and one queue slot per tenant.
    bench::require_in_range(program, "--tenants", *tenants, 1,
                            std::min(*harness.jobs, *harness.depth));
    settings.closed_opts.think_time =
        bench::micros_or_exit(program, "--think-us", *think_us);
    bench::require_think_time_fits(program, *think_us, *harness.jobs);
  }
  std::vector<std::string> policies = {*harness.policy};
  if (*harness.policy == "all") policies = {"fifo", "sjf", "bandwidth"};
  for (const auto& name : policies) harness.require_policy(name);

  settings.closed = *closed;
  settings.open = harness.open_loop();
  settings.closed_opts.shape = settings.open.shape;
  settings.closed_opts.tenants = static_cast<int>(*tenants);
  settings.closed_opts.jobs = *harness.jobs;
  settings.closed_opts.seed = settings.open.seed;
  settings.service = harness.node_options();

  std::ostringstream out;
  harness.begin_report(out);
  out << ",\"workload\":{\"mode\":\""
      << (settings.closed ? "closed" : "open") << "\"";
  if (settings.closed) {
    out << ",\"tenants\":" << settings.closed_opts.tenants
        << ",\"think_us\":" << *think_us;
  } else {
    out << ",\"rate_hz\":" << *harness.rate;
  }
  out << ",\"jobs\":" << *harness.jobs << ",\"seed\":" << *harness.seed
      << ",\"min_log2_elements\":" << *harness.min_log2
      << ",\"max_log2_elements\":" << *harness.max_log2
      << ",\"deadline_us\":" << *harness.deadline_us
      << ",\"um_fraction\":" << *harness.um_fraction
      << ",\"queue_depth\":" << *harness.depth
      << ",\"batching\":" << (settings.service.batching.enable ? "true"
                                                               : "false")
      << ",\"cpu_pool\":" << (settings.service.use_cpu ? "true" : "false");
  harness.write_interval_echo(out);
  out << "}";
  if (const fault::FaultPlan* plan = harness.fault_plan()) {
    out << ",\"fault\":{\"plan\":\"" << *harness.plan
        << "\",\"seed\":" << *harness.fault_seed
        << ",\"specs\":" << plan->size()
        << ",\"max_attempts\":" << serve::kMaxAttempts
        << ",\"breaker_threshold\":"
        << fault::kFailureThreshold << "}";
  }
  out << ",\"policies\":[";

  serve::ServiceReport fifo_report;
  serve::ServiceReport bandwidth_report;
  bool have_fifo = false;
  bool have_bandwidth = false;
  std::vector<bench::RunSections> sections(policies.size());
  std::vector<bench::PerfSample> perf_samples(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto report = bench::run_or_exit(program, [&] {
      return run_policy(harness, policies[i], settings, &sections[i],
                        *perf ? &perf_samples[i] : nullptr);
    });
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
  harness.write_sections(out, sections);
  if (have_fifo && have_bandwidth &&
      fifo_report.throughput_gbps > 0.0) {
    out << ",\"comparison\":{\"fifo_gbps\":" << fifo_report.throughput_gbps
        << ",\"bandwidth_gbps\":" << bandwidth_report.throughput_gbps
        << ",\"bandwidth_over_fifo\":"
        << format_fixed(bandwidth_report.throughput_gbps /
                            fifo_report.throughput_gbps,
                        4)
        << "}";
  }
  if (*perf) {
    // Wall-clock section: machine-dependent by design, so it only exists
    // behind --perf and never perturbs byte-identity checks on the
    // default report.
    out << ",\"perf\":";
    bench::write_perf_json(out, perf_samples);
  }
  harness.end_report(out);
  return 0;
}
