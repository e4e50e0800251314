// Chaos walkthrough: knock the simulated H100 offline mid-run and watch
// the serving layer heal itself. A device-down window fails every GPU
// launch inside it; after a few consecutive failures the GPU circuit
// breaker opens, queued jobs fall back to the Grace CPU, failed jobs
// retry with backoff, and once the outage lifts a half-open probe closes
// the breaker and throughput recovers.
//
//   $ ./examples/chaos_tour
//   $ ./examples/chaos_tour --down-from-us=800 --down-until-us=3000
#include <cstdio>
#include <string>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/util/cli.hpp"

namespace {

using namespace ghs;

void print_report(const char* label, const serve::ServiceReport& r) {
  std::printf("%s\n", label);
  std::printf("  served %lld/%lld  rejected %lld  shed %lld  "
              "p50 %.3f ms  p99 %.3f ms\n",
              static_cast<long long>(r.served),
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.shed), r.latency.pct.p50,
              r.latency.pct.p99);
  std::printf("  throughput %.1f jobs/s (%.1f GB/s)  GPU:CPU jobs %lld:%lld\n",
              r.throughput_jobs_per_s, r.throughput_gbps,
              static_cast<long long>(r.gpu_jobs),
              static_cast<long long>(r.cpu_jobs));
  if (r.fault_aware) {
    std::printf("  gpu launch failures %lld  retries %lld  breaker opens "
                "%lld  cpu-fallback jobs %lld\n",
                static_cast<long long>(r.gpu_failures),
                static_cast<long long>(r.retries),
                static_cast<long long>(r.breaker_opens),
                static_cast<long long>(r.fallback_cpu_jobs));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("chaos_tour",
          "mid-run GPU outage vs the self-healing serving layer");
  const auto* jobs = cli.add_int("jobs", 150, "jobs to submit");
  const auto* rate = cli.add_double("rate", 100000.0, "arrival rate, jobs/s");
  const auto* seed = cli.add_int("seed", 42, "workload seed");
  const auto* fault_seed = cli.add_int("fault-seed", 7, "injector seed");
  const auto* down_from_us =
      cli.add_int("down-from-us", 500, "outage start, microseconds");
  const auto* down_until_us =
      cli.add_int("down-until-us", 2000, "outage end, microseconds");
  cli.parse_or_exit(argc, argv);

  serve::OpenLoopOptions load;
  load.jobs = *jobs;
  load.rate_hz = *rate;
  load.seed = static_cast<std::uint64_t>(*seed);
  const auto workload = serve::open_loop_poisson(load);

  fault::FaultPlan plan;
  fault::OutageWindow outage;
  outage.target = fault::Target::kGpu;
  outage.window.begin = *down_from_us * kMicrosecond;
  outage.window.end = *down_until_us * kMicrosecond;
  plan.outages.push_back(outage);

  std::printf("%lld mixed reductions at %.0f jobs/s; H100 down from "
              "%.3f ms to %.3f ms\n\n",
              static_cast<long long>(*jobs), *rate,
              to_millis(outage.window.begin), to_millis(outage.window.end));

  serve::ServiceModel model;

  // Healthy baseline first, then the same workload through the outage.
  {
    serve::ReductionService service(serve::make_policy("fifo", model), model);
    service.submit_all(workload);
    service.run();
    print_report("fault-free baseline (fifo):", service.report());
  }
  std::printf("\n");

  telemetry::FlightRecorder flight;
  fault::Injector injector(plan,
                           static_cast<std::uint64_t>(*fault_seed),
                           {nullptr, &flight});
  serve::ServiceOptions options;
  options.telemetry.flight = &flight;
  options.injector = &injector;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  service.submit_all(workload);
  service.run();
  print_report("same workload through the outage:", service.report());

  std::printf("\nbreaker transitions and recovery events:\n");
  for (const auto& event : flight.events()) {
    if (event.kind == "breaker" || event.kind == "fallback" ||
        event.kind == "shed") {
      std::printf("  [%9.3f ms] %-8s %s\n", to_millis(event.at),
                  event.kind.c_str(), event.detail.c_str());
    }
  }

  const auto report = service.report();
  std::printf("\nevery job is accounted for: %lld submitted = %lld served "
              "+ %lld rejected + %lld shed\n",
              static_cast<long long>(report.submitted),
              static_cast<long long>(report.served),
              static_cast<long long>(report.rejected),
              static_cast<long long>(report.shed));
  std::printf("while the breaker was open the Grace CPU kept the queue "
              "draining (%lld fallback jobs);\nafter the outage the next "
              "half-open probe reopens the GPU path (final breaker state: "
              "%s).\n",
              static_cast<long long>(report.fallback_cpu_jobs),
              fault::breaker_state_name(
                  service.breaker(serve::Placement::kGpu).state()));
  return 0;
}
