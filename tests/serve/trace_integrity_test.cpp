// Span-tree integrity of the serving layer's causal traces: under fault
// injection every retained span must still belong to a well-formed tree —
// one serve.job root per trace, every child's parent present, retry spans
// parented under their job — and same-seed runs must export byte-identical
// trace files.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::serve {
namespace {

constexpr const char* kChaosPlan =
    "kernel-fault gpu p=0.05\n"
    "device-down gpu from=1ms until=2500us\n";

// Runs the canonical chaotic workload with a tracer attached and returns
// the tracer by reference through `tracer`; the service report through
// the return value.
ServiceReport run_traced(trace::Tracer& tracer) {
  ServiceModel model;
  const fault::FaultPlan plan = fault::parse_plan(kChaosPlan);
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  ReductionService service(make_policy("fifo", model), model, options,
                           &tracer);
  OpenLoopOptions load;
  load.jobs = 200;
  load.rate_hz = 100000.0;
  load.seed = 42;
  service.submit_all(open_loop_poisson(load));
  service.run();
  return service.report();
}

TEST(TraceIntegrityTest, EveryRetainedSpanBelongsToAWellFormedTree) {
  trace::Tracer tracer;
  const auto report = run_traced(tracer);
  ASSERT_GT(report.retries, 0) << "plan must force retries";

  const auto spans = tracer.spans();
  std::map<std::uint64_t, const trace::Span*> by_span_id;
  std::map<std::uint64_t, int> roots_per_trace;
  int ctx_spans = 0;
  for (const auto& span : spans) {
    if (!span.ctx.valid()) continue;
    ++ctx_spans;
    EXPECT_TRUE(by_span_id.emplace(span.ctx.span_id, &span).second)
        << "duplicate span id " << span.ctx.span_id;
    if (span.ctx.parent_id == 0) {
      ++roots_per_trace[span.ctx.trace_id];
      EXPECT_EQ(span.name.rfind("serve.job", 0), 0u)
          << "root span is not a serve.job span: " << span.name;
    }
  }
  ASSERT_GT(ctx_spans, 0);

  // No orphans: every child's parent is retained, in the same trace, and
  // the chain reaches a root.
  int retry_spans = 0;
  for (const auto& span : spans) {
    if (!span.ctx.valid() || span.ctx.parent_id == 0) continue;
    const auto parent = by_span_id.find(span.ctx.parent_id);
    ASSERT_NE(parent, by_span_id.end())
        << "orphan span " << span.name << " (parent " << span.ctx.parent_id
        << " missing)";
    EXPECT_EQ(parent->second->ctx.trace_id, span.ctx.trace_id)
        << "span " << span.name << " crosses traces";
    // Walk to the root (trees are shallow; bound the walk anyway).
    const trace::Span* node = &span;
    int hops = 0;
    while (node->ctx.parent_id != 0 && hops < 8) {
      node = by_span_id.at(node->ctx.parent_id);
      ++hops;
    }
    EXPECT_EQ(node->ctx.parent_id, 0u) << "unrooted span " << span.name;
    if (span.name == "serve.retry_backoff") {
      ++retry_spans;
      EXPECT_EQ(parent->second->name.rfind("serve.job", 0), 0u)
          << "retry span must hang off its job root";
    }
  }
  EXPECT_EQ(retry_spans, static_cast<int>(report.retries));

  // Exactly one root per trace, and one trace per submitted job.
  for (const auto& [trace_id, count] : roots_per_trace) {
    EXPECT_EQ(count, 1) << "trace " << trace_id << " has " << count
                        << " roots";
  }
  EXPECT_EQ(static_cast<std::int64_t>(roots_per_trace.size()),
            report.submitted);
}

TEST(TraceIntegrityTest, SameSeedRunsExportByteIdenticalTraces) {
  const auto render = []() {
    trace::Tracer tracer;
    run_traced(tracer);
    std::ostringstream os;
    trace::ChromeTraceExporter(tracer).write(os);
    return os.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  // The causal chain of the acceptance demo is present: queue wait,
  // breaker trip, retry backoff, CPU fallback execution.
  EXPECT_NE(first.find("serve.queue"), std::string::npos);
  EXPECT_NE(first.find("serve.retry_backoff"), std::string::npos);
  EXPECT_NE(first.find("serve.breaker GPU open"), std::string::npos);
  EXPECT_NE(first.find("cpu.reduce"), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"s\""), std::string::npos);
}

// Every span or instant an emit site considers ends one way: kept,
// dropped by the ring, or dropped by the sampler. So at any rate the three
// add up to what the unsampled run keeps.
std::int64_t accounted(const trace::Tracer& tracer) {
  return static_cast<std::int64_t>(tracer.size()) + tracer.dropped_total() +
         tracer.dropped_by_sampler();
}

TEST(TraceIntegrityTest, SamplerCountsEverySpanItSkips) {
  const auto run = [](trace::Tracer& tracer) {
    ServiceModel model;
    const fault::FaultPlan plan = fault::parse_plan(kChaosPlan);
    fault::Injector injector(plan, 7);
    ServiceOptions options;
    options.injector = &injector;
    ReductionService service(make_policy("fifo", model), model, options,
                             &tracer);
    OpenLoopOptions load;
    load.jobs = 400;
    load.rate_hz = 200000.0;
    load.seed = 42;
    load.shape.um_fraction = 0.3;
    service.submit_all(open_loop_poisson(load));
    service.run();
    return service.report();
  };
  trace::Tracer full;
  const auto report = run(full);
  ASSERT_GT(report.retries, 0);
  ASSERT_GT(report.shed + report.rejected, 0);
  ASSERT_GT(report.um_jobs, 0);
  ASSERT_EQ(full.dropped_by_sampler(), 0);
  for (const std::size_t capacity : {trace::Tracer::kDefaultCapacity,
                                     std::size_t{64}}) {
    trace::Tracer sampled(capacity);
    sampled.set_sampler(trace::SamplerOptions{0.05, 3});
    run(sampled);
    EXPECT_GT(sampled.dropped_by_sampler(), 0);
    EXPECT_EQ(accounted(sampled), accounted(full)) << "capacity " << capacity;
  }
}

TEST(TraceIntegrityTest, UntracedRunsLeaveJobContextsInvalid) {
  ServiceModel model;
  ReductionService service(make_policy("fifo", model), model);
  std::int64_t completions = 0;
  service.set_on_complete([&completions](const JobRecord& record) {
    ++completions;
    EXPECT_FALSE(record.job.ctx.valid());
  });
  OpenLoopOptions load;
  load.jobs = 20;
  load.rate_hz = 100000.0;
  load.seed = 42;
  service.submit_all(open_loop_poisson(load));
  service.run();
  EXPECT_EQ(completions, 20);
}

TEST(TraceIntegrityTest, BoundedTracerStillYieldsParentlessFreeSpansOnly) {
  // With a tiny ring the oldest spans (typically roots) are dropped; the
  // invariant that survives is that ids never collide and dropped counts
  // are reported, so downstream tools can flag truncated trees.
  trace::Tracer tracer(64);
  run_traced(tracer);
  EXPECT_GT(tracer.dropped_total(), 0);
  EXPECT_EQ(tracer.spans().size(), 64u);
  std::map<std::uint64_t, int> seen;
  for (const auto& span : tracer.spans()) {
    if (span.ctx.valid()) {
      EXPECT_EQ(++seen[span.ctx.span_id], 1);
    }
  }
}

}  // namespace
}  // namespace ghs::serve
