// SLO walkthrough: put the serving layer under chaos, judge every request
// against declarative objectives, and watch the multi-window burn-rate
// alerts fire. Two objectives guard the run — three-nines availability
// (rejected or shed jobs burn the budget) and a p99 latency bound — and
// each is watched by the sim-time analogues of the SRE workbook's paging
// rules: a fast 250us+1ms pair at 14.4x burn, a slow 1ms+5ms pair at 1x.
//
//   $ ./examples/slo_tour
//   $ ./examples/slo_tour --latency-ms=0.5 --down-from-us=800
#include <cstdio>
#include <sstream>
#include <string>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/util/cli.hpp"

namespace {

using namespace ghs;

void print_objective(const slo::ObjectiveReport& obj) {
  std::printf("objective %-12s (%s, target %.3f%s)\n", obj.name.c_str(),
              slo::objective_kind_name(obj.kind), obj.target,
              obj.kind == slo::ObjectiveKind::kLatencyQuantile
                  ? (" @ " + std::to_string(obj.threshold_ms) + " ms").c_str()
                  : "");
  std::printf("  %lld samples: %lld good, %lld bad -> compliance %.4f "
              "(%s)\n",
              static_cast<long long>(obj.samples),
              static_cast<long long>(obj.good),
              static_cast<long long>(obj.bad), obj.compliance,
              obj.met ? "SLO met" : "SLO MISSED");
  std::printf("  whole-run budget burn %.2fx\n", obj.budget_burn);
  for (const auto& rule : obj.burn) {
    std::printf("  %-5s rule (%.2f ms + %.2f ms @ %.1fx): peak burn "
                "%.2fx, %lld alert(s)",
                rule.severity.c_str(), to_millis(rule.long_window),
                to_millis(rule.short_window), rule.threshold, rule.peak_burn,
                static_cast<long long>(rule.alerts));
    if (rule.first_alert >= 0) {
      std::printf(", first at %.3f ms", to_millis(rule.first_alert));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("slo_tour",
          "error budgets and burn-rate alerts over a chaotic serving run");
  const auto* jobs = cli.add_int("jobs", 200, "jobs to submit");
  const auto* rate = cli.add_double("rate", 100000.0, "arrival rate, jobs/s");
  const auto* seed = cli.add_int("seed", 42, "workload seed");
  const auto* fault_seed = cli.add_int("fault-seed", 7, "injector seed");
  const auto* latency_ms = cli.add_double(
      "latency-ms", 0.25, "p99 latency objective threshold, milliseconds");
  const auto* down_from_us =
      cli.add_int("down-from-us", 1000, "GPU outage start, microseconds");
  const auto* down_until_us =
      cli.add_int("down-until-us", 2500, "GPU outage end, microseconds");
  cli.parse_or_exit(argc, argv);

  serve::OpenLoopOptions load;
  load.jobs = *jobs;
  load.rate_hz = *rate;
  load.seed = static_cast<std::uint64_t>(*seed);

  fault::FaultPlan plan;
  fault::OutageWindow outage;
  outage.target = fault::Target::kGpu;
  outage.window.begin = *down_from_us * kMicrosecond;
  outage.window.end = *down_until_us * kMicrosecond;
  plan.outages.push_back(outage);

  std::printf("%lld mixed reductions at %.0f jobs/s; H100 down %.3f-%.3f "
              "ms; objectives: availability 99.9%%, p99 latency <= %.3f "
              "ms\n\n",
              static_cast<long long>(*jobs), *rate,
              to_millis(outage.window.begin), to_millis(outage.window.end),
              *latency_ms);

  serve::ServiceModel model;
  fault::Injector injector(plan, static_cast<std::uint64_t>(*fault_seed));
  serve::ServiceOptions options;
  options.injector = &injector;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  service.submit_all(serve::open_loop_poisson(load));
  service.run();

  // Declare the objectives, feed the whole run, evaluate.
  std::vector<slo::Objective> objectives;
  objectives.push_back(slo::Objective{
      "availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0});
  objectives.push_back(slo::Objective{
      "latency_p99", slo::ObjectiveKind::kLatencyQuantile, 0.99,
      *latency_ms});
  slo::Monitor monitor(std::move(objectives));
  monitor.feed(service);
  const slo::Report report = monitor.evaluate();

  for (const auto& obj : report.objectives) {
    print_objective(obj);
    std::printf("\n");
  }

  if (report.alerts.empty()) {
    std::printf("no burn-rate alerts: the outage stayed inside the error "
                "budget.\n");
  } else {
    std::printf("pager timeline (%lld alert(s)):\n",
                static_cast<long long>(report.total_alerts()));
    for (const auto& alert : report.alerts) {
      std::printf("  [%9.3f ms] %-5s %-12s burn %.2fx long / %.2fx "
                  "short\n",
                  to_millis(alert.at), alert.severity.c_str(),
                  alert.objective.c_str(), alert.burn_long,
                  alert.burn_short);
    }
  }

  std::printf("\nmachine-readable report:\n");
  std::ostringstream json;
  report.write_json(json);
  std::printf("%s\n", json.str().c_str());
  return 0;
}
