#include "ghs/trace/tracer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ghs/core/reduce.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/error.hpp"

namespace ghs::trace {
namespace {

std::string export_json(const Tracer& tracer) {
  std::ostringstream os;
  ChromeTraceExporter(tracer).write(os);
  return os.str();
}

TEST(TracerTest, RecordsSpansAndInstants) {
  Tracer tracer;
  tracer.record(Track::kGpu, "kernel", 100, 200, "grid=16");
  tracer.mark(Track::kRuntime, "launch", 100);
  EXPECT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.instants().size(), 1u);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "kernel");
  EXPECT_EQ(tracer.spans()[0].begin, 100);
  EXPECT_EQ(tracer.spans()[0].end, 200);
}

TEST(TracerTest, RejectsBackwardsSpans) {
  Tracer tracer;
  EXPECT_THROW(tracer.record(Track::kGpu, "bad", 200, 100), Error);
  EXPECT_THROW(tracer.record(Track::kGpu, "bad", -1, 100), Error);
  EXPECT_THROW(tracer.mark(Track::kGpu, "bad", -1), Error);
}

TEST(TracerTest, ZeroDurationSpanAllowed) {
  Tracer tracer;
  EXPECT_NO_THROW(tracer.record(Track::kCpu, "empty", 50, 50));
}

TEST(TracerTest, ClearEmptiesEverything) {
  Tracer tracer;
  tracer.record(Track::kGpu, "a", 0, 1);
  tracer.mark(Track::kGpu, "b", 0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, ServerTrackIsNamedAndExported) {
  EXPECT_STREQ(track_name(Track::kServer), "Reduction service");
  Tracer tracer;
  tracer.record(Track::kServer, "C1 x4 @GPU", 0, 100);
  const std::string json = export_json(tracer);
  EXPECT_NE(json.find("Reduction service"), std::string::npos);
  EXPECT_NE(json.find("C1 x4 @GPU"), std::string::npos);
}

TEST(TracerTest, RecordSpanHelperHonoursNull) {
  EXPECT_NO_THROW(record_span(nullptr, Track::kGpu, "x", 0, 1));
  Tracer tracer;
  record_span(&tracer, Track::kGpu, "x", 0, 1);
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer tracer;
  tracer.record(Track::kGpu, "kernel", 1000, 3000, "grid=16");
  tracer.mark(Track::kRuntime, "update", 500);
  const std::string json = export_json(tracer);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("GPU kernels"), std::string::npos);
  // Balanced braces and brackets (cheap well-formedness check).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TracerTest, JsonEscapesSpecialCharacters) {
  Tracer tracer;
  tracer.record(Track::kGpu, "with \"quote\" and \\slash", 0, 1);
  EXPECT_NE(export_json(tracer).find("with \\\"quote\\\" and \\\\slash"),
            std::string::npos);
}

TEST(TracerTest, JsonEscapesHostileSpanNames) {
  // Control characters, quotes, and backslashes in a span name (or detail)
  // must never produce invalid JSON — e.g. a job label that embeds a tab
  // or newline from a config file.
  Tracer tracer;
  tracer.record(Track::kServer, "evil\t\"name\"\nwith\\stuff\x01", 0, 1,
                "detail\rwith\fcontrols\b");
  const std::string json = export_json(tracer);
  EXPECT_NE(
      json.find("evil\\t\\\"name\\\"\\nwith\\\\stuff\\u0001"),
      std::string::npos);
  EXPECT_NE(json.find("detail\\rwith\\fcontrols\\b"), std::string::npos);
  // No raw control bytes survive into the output.
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(TracerTest, TrackNames) {
  EXPECT_STREQ(track_name(Track::kGpu), "GPU kernels");
  EXPECT_STREQ(track_name(Track::kUmMigration), "UM migration");
}

TEST(TracerTest, PlatformIntegrationRecordsKernelSpans) {
  Tracer tracer;
  core::Platform platform(core::gh200_config(), {}, &tracer);

  core::GpuBenchmark bench;
  bench.case_id = workload::CaseId::kC1;
  bench.tuning = core::ReduceTuning{2048, 256, 4};
  bench.elements = 1 << 22;
  bench.iterations = 2;
  core::run_gpu_benchmark(platform, bench);

  int kernel_spans = 0;
  int wave_spans = 0;
  for (const auto& span : tracer.spans()) {
    if (span.track == Track::kGpu) ++kernel_spans;
    if (span.track == Track::kGpuWaves) ++wave_spans;
  }
  EXPECT_EQ(kernel_spans, 2);
  EXPECT_GE(wave_spans, 2);
  // Spans never run backwards and sit within simulated time.
  for (const auto& span : tracer.spans()) {
    EXPECT_LE(span.begin, span.end);
    EXPECT_LE(span.end, platform.sim().now());
  }
}

TEST(TracerTest, PlatformIntegrationRecordsCoExecution) {
  Tracer tracer;
  core::Platform platform(core::gh200_config(), {}, &tracer);
  core::HeteroBenchmark bench;
  bench.case_id = workload::CaseId::kC1;
  bench.cpu_parts = {0.5};
  bench.elements = 1 << 22;
  bench.iterations = 1;
  core::run_hetero_benchmark(platform, bench);

  bool saw_cpu = false;
  bool saw_gpu = false;
  bool saw_region = false;
  for (const auto& span : tracer.spans()) {
    saw_cpu |= span.track == Track::kCpu;
    saw_gpu |= span.track == Track::kGpu;
    saw_region |= span.track == Track::kRuntime;
  }
  EXPECT_TRUE(saw_cpu);
  EXPECT_TRUE(saw_gpu);
  EXPECT_TRUE(saw_region);
}

TEST(TracerSamplerTest, InactiveByDefault) {
  Tracer tracer;
  EXPECT_FALSE(tracer.sampler_active());
  EXPECT_EQ(tracer.sample_rate(), 1.0);
  EXPECT_TRUE(tracer.sampled(12345));
  EXPECT_EQ(tracer.dropped_by_sampler(), 0);
}

TEST(TracerSamplerTest, RateOneKeepsEverythingAndStaysInactive) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{1.0, 7});
  EXPECT_FALSE(tracer.sampler_active());
  for (std::uint64_t id = 1; id < 100; ++id) EXPECT_TRUE(tracer.sampled(id));
}

TEST(TracerSamplerTest, RateZeroDropsEveryTrace) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{0.0, 7});
  EXPECT_TRUE(tracer.sampler_active());
  for (std::uint64_t id = 1; id < 100; ++id) EXPECT_FALSE(tracer.sampled(id));
  // Context-free entries are never sampled away.
  EXPECT_TRUE(tracer.sampled(0));
}

TEST(TracerSamplerTest, DecisionIsPerTraceIdAndDeterministic) {
  Tracer a;
  Tracer b;
  a.set_sampler(SamplerOptions{0.5, 42});
  b.set_sampler(SamplerOptions{0.5, 42});
  int kept = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::uint64_t id = derive_trace_id(static_cast<std::int64_t>(key));
    EXPECT_EQ(a.sampled(id), b.sampled(id));
    if (a.sampled(id)) ++kept;
  }
  // Deterministic but unbiased: about half the ids survive at rate 0.5.
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 600);
}

TEST(TracerSamplerTest, DifferentSeedsSampleDifferentTraces) {
  Tracer a;
  Tracer b;
  a.set_sampler(SamplerOptions{0.5, 1});
  b.set_sampler(SamplerOptions{0.5, 2});
  bool any_difference = false;
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::uint64_t id = derive_trace_id(static_cast<std::int64_t>(key));
    any_difference |= a.sampled(id) != b.sampled(id);
  }
  EXPECT_TRUE(any_difference);
}

TEST(TracerSamplerTest, DroppedEntriesAreCountedNotRecorded) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{0.0, 0});
  const Context ctx{derive_trace_id(1), 1, 0};
  tracer.record(Track::kJobs, "dropped", 0, 10, "", ctx);
  tracer.mark(Track::kJobs, "dropped-mark", 5, ctx);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped_by_sampler(), 2);
  // Context-free spans still land.
  tracer.record(Track::kGpu, "kernel", 0, 10);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(TracerSamplerTest, WholeSpanTreeSharesOneDecision) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{0.5, 9});
  const std::uint64_t id = derive_trace_id(77);
  const Context root{id, tracer.new_span_id(), 0};
  const Context child = root.child(tracer.new_span_id());
  EXPECT_EQ(tracer.keep(root), tracer.keep(child));
}

TEST(TracerSamplerTest, KeepCountsTheEntriesASiteSkips) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{0.0, 0});
  EXPECT_FALSE(tracer.keep(Context{derive_trace_id(1), 1, 0}, 3));
  EXPECT_FALSE(tracer.keep(Context{derive_trace_id(2), 2, 0}));
  EXPECT_EQ(tracer.dropped_by_sampler(), 4);
  // Context-free entries are never sampled, so nothing is counted.
  EXPECT_TRUE(tracer.keep(Context{}, 5));
  EXPECT_EQ(tracer.dropped_by_sampler(), 4);
}

TEST(TracerSamplerTest, RateOneJsonIsByteIdenticalToUnsampled) {
  const auto render = [](Tracer& tracer) {
    tracer.record(Track::kJobs, "span", 0, 100, "d",
                  Context{derive_trace_id(3), 1, 0});
    tracer.mark(Track::kRuntime, "m", 50);
    return export_json(tracer);
  };
  Tracer plain;
  Tracer sampled;
  sampled.set_sampler(SamplerOptions{1.0, 99});
  EXPECT_EQ(render(plain), render(sampled));
}

TEST(TracerSamplerTest, ActiveSamplerIsVisibleInJson) {
  Tracer tracer;
  tracer.set_sampler(SamplerOptions{0.25, 5});
  tracer.record(Track::kGpu, "kernel", 0, 10);
  const std::string json = export_json(tracer);
  EXPECT_NE(json.find("\"sampling\":{\"rate\":0.250000,\"seed\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"dropped_by_sampler\":0"), std::string::npos);
}

}  // namespace
}  // namespace ghs::trace
