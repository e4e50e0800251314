// Serving-layer walkthrough: submit a burst of mixed-case reduction
// requests to the multi-tenant service and compare what FIFO and the
// bandwidth-aware scheduler make of the very same workload.
//
//   $ ./examples/serve_demo
//   $ ./examples/serve_demo --jobs=120 --rate=150000 --trace=serve.json
#include <cstdio>
#include <fstream>
#include <string>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"

namespace {

using namespace ghs;

void print_report(const serve::ServiceReport& r) {
  std::printf("  %-10s served %3lld/%3lld (rejected %lld)  "
              "p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms\n",
              r.policy.c_str(), static_cast<long long>(r.served),
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.rejected), r.latency.pct.p50,
              r.latency.pct.p95, r.latency.pct.p99);
  std::printf("             throughput %8.1f jobs/s (%7.1f GB/s)  "
              "GPU:CPU jobs %lld:%lld  launches %lld (%lld batched jobs)\n",
              r.throughput_jobs_per_s, r.throughput_gbps,
              static_cast<long long>(r.gpu_jobs),
              static_cast<long long>(r.cpu_jobs),
              static_cast<long long>(r.launches),
              static_cast<long long>(r.batched_jobs));
  if (r.tuner_misses > 0) {
    std::printf("             tuner cache: %lld misses (hill climbs), %lld "
                "hits\n",
                static_cast<long long>(r.tuner_misses),
                static_cast<long long>(r.tuner_hits));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("serve_demo", "FIFO vs bandwidth-aware serving, side by side");
  const auto* jobs = cli.add_int("jobs", 80, "jobs to submit");
  const auto* rate = cli.add_double("rate", 100000.0, "arrival rate, jobs/s");
  const auto* seed = cli.add_int("seed", 42, "workload seed");
  const auto* trace_path =
      cli.add_string("trace", "", "Chrome-trace file for the bandwidth run");
  cli.parse_or_exit(argc, argv);

  serve::OpenLoopOptions load;
  load.jobs = *jobs;
  load.rate_hz = *rate;
  load.seed = static_cast<std::uint64_t>(*seed);
  const auto workload = serve::open_loop_poisson(load);

  std::printf("serving %lld mixed C1-C4 reductions, Poisson arrivals at "
              "%.0f jobs/s (seed %lld)\n\n",
              static_cast<long long>(*jobs), *rate,
              static_cast<long long>(*seed));

  serve::ServiceModel model;
  for (const std::string policy : {"fifo", "bandwidth"}) {
    trace::Tracer tracer;
    const bool tracing = policy == "bandwidth" && !trace_path->empty();
    serve::ReductionService service(serve::make_policy(policy, model), model,
                                    {}, tracing ? &tracer : nullptr);
    service.submit_all(workload);
    service.run();
    print_report(service.report());
    if (tracing) {
      std::ofstream out(*trace_path);
      trace::ChromeTraceExporter(tracer).write(out);
      std::printf("             timeline written to %s "
                  "(open in chrome://tracing)\n",
                  trace_path->c_str());
    }
    std::printf("\n");
  }
  std::printf("the bandwidth-aware policy drains small jobs through the "
              "Grace CPU while the\nH100 streams the large ones; FIFO "
              "funnels everything through the GPU queue.\n");
  return 0;
}
