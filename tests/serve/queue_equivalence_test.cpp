// End-to-end equivalence of the event core's arrival path and the trace
// head sampler. submit_all sorts an out-of-order batch and chains it, so
// the order a caller hands the jobs over in cannot change a byte of the
// report or the telemetry snapshot, and the event queue stays shallow no
// matter how large the batch is. The chain dispatches in the same order as
// per-job submit(), and sampling at rate 1.0 is byte-identical to no
// sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::serve {
namespace {

OpenLoopOptions small_workload(std::uint64_t seed) {
  OpenLoopOptions load;
  load.jobs = 120;
  load.rate_hz = 300000.0;  // past capacity: queues, rejections, batching
  load.seed = seed;
  load.shape.min_log2_elements = 14;
  load.shape.max_log2_elements = 18;
  return load;
}

struct RunOutput {
  std::string report;
  std::string metrics;
  std::size_t peak_queue = 0;
};

/// The order a test hands a generated batch to submit_all in.
enum class Order { kSorted, kReversed, kShuffled };

std::vector<Job> batch_in_order(std::uint64_t seed, Order order) {
  auto jobs = open_loop_poisson(small_workload(seed));
  if (order == Order::kReversed) {
    std::reverse(jobs.begin(), jobs.end());
  } else if (order == Order::kShuffled) {
    Rng rng(seed ^ 0x5bd1e995);
    for (std::size_t i = jobs.size(); i > 1; --i) {
      std::swap(jobs[i - 1], jobs[rng.next_below(i)]);
    }
  }
  return jobs;
}

/// One full service run: report JSON plus the telemetry JSON snapshot.
RunOutput run_once(Order order, std::uint64_t seed, bool chaos = false) {
  telemetry::Registry registry;
  const auto plan = fault::parse_plan(
      "kernel-fault gpu p=0.05\n"
      "device-down gpu from=400us until=700us\n");
  fault::Injector injector(plan, 7, {&registry, nullptr});
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  options.telemetry.metrics = &registry;
  if (chaos) options.injector = &injector;
  ReductionService service(make_policy("fifo", model), model, options);
  service.submit_all(batch_in_order(seed, order));
  service.run();
  RunOutput out;
  std::ostringstream report;
  service.report().write_json(report);
  out.report = report.str();
  std::ostringstream metrics;
  telemetry::write_json_snapshot(metrics, registry);
  out.metrics = metrics.str();
  out.peak_queue = service.sim().peak_queue_size();
  return out;
}

TEST(QueueEquivalenceTest, UnsortedBatchesAreSortedAndChained) {
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    const RunOutput sorted = run_once(Order::kSorted, seed);
    EXPECT_LE(sorted.peak_queue, 8u) << "seed " << seed;
    for (const Order order : {Order::kReversed, Order::kShuffled}) {
      const RunOutput out = run_once(order, seed);
      EXPECT_EQ(out.report, sorted.report) << "seed " << seed;
      EXPECT_EQ(out.metrics, sorted.metrics) << "seed " << seed;
      // Chained, not scheduled one event per job up front.
      EXPECT_EQ(out.peak_queue, sorted.peak_queue) << "seed " << seed;
    }
  }
}

TEST(QueueEquivalenceTest, UnsortedBatchMatchesUnderFaultInjection) {
  const RunOutput sorted = run_once(Order::kSorted, 42, /*chaos=*/true);
  const RunOutput shuffled = run_once(Order::kShuffled, 42, /*chaos=*/true);
  EXPECT_EQ(shuffled.report, sorted.report);
  EXPECT_EQ(shuffled.metrics, sorted.metrics);
  // The chaos plan actually fired (otherwise this test proves nothing):
  // the fault section is present and records at least one GPU failure.
  EXPECT_NE(sorted.report.find("\"gpu_failures\":"), std::string::npos);
  EXPECT_EQ(sorted.report.find("\"gpu_failures\":0"), std::string::npos);
}

TEST(QueueEquivalenceTest, ChainedPumpKeepsTheQueueShallow) {
  // 10^3 jobs submitted as one sorted batch: the pump injects arrivals one
  // at a time, so the queue depth tracks in-flight service work (a handful
  // of events), not the batch size.
  OpenLoopOptions load = small_workload(42);
  load.jobs = 1000;
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options);
  service.submit_all(open_loop_poisson(load));
  service.run();
  EXPECT_EQ(service.served_times().size() + service.rejected_jobs().size(),
            1000u);
  EXPECT_LE(service.sim().peak_queue_size(), 8u);
}

TEST(QueueEquivalenceTest, BatchAndPerJobSubmissionMatch) {
  const auto jobs = open_loop_poisson(small_workload(42));
  std::string reports[2];
  for (int batched = 0; batched < 2; ++batched) {
    ServiceModel model;
    ServiceOptions options;
    options.queue_depth = 16;
    ReductionService service(make_policy("fifo", model), model, options);
    if (batched == 1) {
      service.submit_all(jobs);
    } else {
      for (const auto& job : jobs) service.submit(job);
    }
    service.run();
    std::ostringstream os;
    service.report().write_json(os);
    reports[batched] = os.str();
  }
  EXPECT_EQ(reports[0], reports[1]);
}

/// Report + trace JSON for one traced run at the given sampling rate
/// (rate >= 1 leaves the sampler uninstalled).
std::pair<std::string, std::string> traced_run(double rate) {
  trace::Tracer tracer;
  tracer.set_sampler(trace::SamplerOptions{rate, 42});
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options,
                           &tracer);
  service.submit_all(open_loop_poisson(small_workload(42)));
  service.run();
  std::ostringstream report;
  service.report().write_json(report);
  std::ostringstream trace_json;
  trace::ChromeTraceExporter(tracer).write(trace_json);
  return {report.str(), trace_json.str()};
}

TEST(SamplerEquivalenceTest, RateOneIsByteIdenticalToNoSampler) {
  trace::Tracer plain;  // sampler never installed
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 16;
  ReductionService service(make_policy("fifo", model), model, options,
                           &plain);
  service.submit_all(open_loop_poisson(small_workload(42)));
  service.run();
  std::ostringstream plain_trace;
  trace::ChromeTraceExporter(plain).write(plain_trace);

  const auto [report, sampled_trace] = traced_run(1.0);
  EXPECT_EQ(sampled_trace, plain_trace.str());
}

TEST(SamplerEquivalenceTest, SamplingNeverChangesTheReport) {
  const auto full = traced_run(1.0);
  const auto half = traced_run(0.5);
  EXPECT_EQ(full.first, half.first);      // report is sampling-invariant
  EXPECT_NE(full.second, half.second);    // but spans were actually dropped
  EXPECT_LT(half.second.size(), full.second.size());
}

}  // namespace
}  // namespace ghs::serve
