#include "ghs/trace/chrome_exporter.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ghs/trace/tracer.hpp"

namespace ghs::trace {
namespace {

std::string render(const Tracer& tracer) {
  std::ostringstream os;
  ChromeTraceExporter(tracer).write(os);
  return os.str();
}

// Golden file for an empty tracer: the export is exactly the process and
// thread metadata. Guards the (pid, tid) layout — Perfetto groups tracks
// by these ids, so silently renumbering them breaks saved trace configs.
TEST(ChromeTraceExporterTest, EmptyTracerGolden) {
  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
      "{\"pid\":1,\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"H100 GPU\"}},"
      "{\"pid\":2,\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"Grace CPU\"}},"
      "{\"pid\":3,\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\","
      "\"args\":{\"name\":\"Reduction service\"}},"
      "{\"pid\":1,\"tid\":0,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"GPU kernels\"}},"
      "{\"pid\":1,\"tid\":1,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"GPU waves\"}},"
      "{\"pid\":2,\"tid\":2,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"CPU reduction\"}},"
      "{\"pid\":1,\"tid\":3,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"UM migration\"}},"
      "{\"pid\":3,\"tid\":4,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"OpenMP runtime\"}},"
      "{\"pid\":3,\"tid\":5,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"Reduction service\"}},"
      "{\"pid\":3,\"tid\":6,\"ph\":\"M\",\"name\":\"thread_name\","
      "\"args\":{\"name\":\"Job spans\"}}"
      "]}";
  EXPECT_EQ(render(Tracer{}), expected);
}

// Golden file for one context-carrying job: queue span on the service
// process, kernel span on the GPU process, one flow arrow between them.
TEST(ChromeTraceExporterTest, ContextSpansAndFlowGolden) {
  Tracer tracer;
  const Context queue_ctx{0x10, 2, 1};
  tracer.record(Track::kJobs, "serve.queue", 0, 1000, "attempt=0",
                queue_ctx);
  tracer.record(Track::kGpu, "gpu.kernel", 1000, 3000, {},
                queue_ctx.child(3));
  const std::string json = render(tracer);

  EXPECT_NE(json.find("{\"pid\":3,\"tid\":6,\"ph\":\"X\",\"ts\":0.000000,"
                      "\"dur\":0.001000,\"name\":\"serve.queue\","
                      "\"args\":{\"detail\":\"attempt=0\","
                      "\"trace_id\":\"0000000000000010\",\"span_id\":2,"
                      "\"parent_id\":1}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"pid\":1,\"tid\":0,\"ph\":\"X\",\"ts\":0.001000,"
                      "\"dur\":0.002000,\"name\":\"gpu.kernel\","
                      "\"args\":{\"trace_id\":\"0000000000000010\","
                      "\"span_id\":3,\"parent_id\":2}}"),
            std::string::npos);
  // Flow: starts at the queue span (service process), finishes at the
  // kernel span (GPU process), keyed by the hex trace id.
  EXPECT_NE(json.find("{\"pid\":3,\"tid\":6,\"ph\":\"s\","
                      "\"id\":\"0000000000000010\",\"cat\":\"job\","
                      "\"name\":\"job flow\",\"ts\":0.000000}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"pid\":1,\"tid\":0,\"ph\":\"f\",\"bp\":\"e\","
                      "\"id\":\"0000000000000010\",\"cat\":\"job\","
                      "\"name\":\"job flow\",\"ts\":0.001000}"),
            std::string::npos);
}

TEST(ChromeTraceExporterTest, TimestampsArePicosecondExact) {
  Tracer tracer;
  tracer.record(Track::kGpu, "k", 1'234'567'891, 1'234'567'901);
  const std::string json = render(tracer);
  EXPECT_NE(json.find("\"ts\":1234.567891,\"dur\":0.000010,"),
            std::string::npos)
      << json;
}

TEST(ChromeTraceExporterTest, SingleSpanTraceGetsNoFlow) {
  Tracer tracer;
  tracer.record(Track::kJobs, "lonely", 0, 10, {}, Context{0x9, 1, 0});
  EXPECT_EQ(render(tracer).find("job flow"), std::string::npos);
}

TEST(ChromeTraceExporterTest, ContextFreeSpansCarryNoIds) {
  Tracer tracer;
  tracer.record(Track::kServer, "C1 x4 @GPU", 0, 100, "legacy");
  const std::string json = render(tracer);
  EXPECT_NE(json.find("\"args\":{\"detail\":\"legacy\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("trace_id"), std::string::npos);
}

TEST(ChromeTraceExporterTest, IdenticalTracersExportIdenticalBytes) {
  const auto build = []() {
    Tracer tracer;
    for (int i = 0; i < 50; ++i) {
      const Context ctx{derive_trace_id(i), tracer.new_span_id(), 0};
      tracer.record(Track::kJobs, "serve.job #" + std::to_string(i),
                    i * 100, i * 100 + 90, "outcome=served", ctx);
      tracer.record(Track::kGpu, "gpu.kernel", i * 100 + 10, i * 100 + 90,
                    {}, ctx.child(tracer.new_span_id()));
      tracer.mark(Track::kJobs, "serve.admit", i * 100, ctx);
    }
    return render(tracer);
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace ghs::trace
