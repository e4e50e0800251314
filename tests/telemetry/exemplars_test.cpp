#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/error.hpp"

namespace ghs::telemetry {
namespace {

TEST(ExemplarsTest, LandInTheBucketTheValueFallsIn) {
  Registry registry;
  Histogram& h =
      registry.histogram("h_ms", {1.0, 10.0, 100.0}, {}, "latency");
  h.observe_exemplar(0.5, 0xa);    // bucket 0: le=1
  h.observe_exemplar(5.0, 0xb);    // bucket 1: le=10
  h.observe_exemplar(500.0, 0xc);  // bucket 3: +Inf
  EXPECT_EQ(h.exemplar(0).trace_id, 0xau);
  EXPECT_EQ(h.exemplar(0).value, 0.5);
  EXPECT_EQ(h.exemplar(1).trace_id, 0xbu);
  EXPECT_EQ(h.exemplar(2).trace_id, 0u);  // le=100: nothing landed there
  EXPECT_EQ(h.exemplar(3).trace_id, 0xcu);
  EXPECT_TRUE(h.has_exemplars());
  // The observation itself still counts like a plain observe().
  EXPECT_EQ(h.count(), 3);
}

TEST(ExemplarsTest, BoundaryValueGoesToItsLeBucket) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0, 10.0});
  // Prometheus buckets are `le` (less-or-equal): 1.0 belongs to le=1.
  h.observe_exemplar(1.0, 0xd);
  EXPECT_EQ(h.exemplar(0).trace_id, 0xdu);
  EXPECT_EQ(h.exemplar(1).trace_id, 0u);
}

TEST(ExemplarsTest, LastWriterWinsPerBucket) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0});
  h.observe_exemplar(0.25, 0x1);
  h.observe_exemplar(0.75, 0x2);
  EXPECT_EQ(h.exemplar(0).trace_id, 0x2u);
  EXPECT_EQ(h.exemplar(0).value, 0.75);
}

TEST(ExemplarsTest, ZeroTraceIdIsAPlainObserve) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0});
  h.observe_exemplar(0.5, 0);
  EXPECT_FALSE(h.has_exemplars());
  EXPECT_EQ(h.count(), 1);
}

TEST(ExemplarsTest, PrometheusExpositionCarriesOpenMetricsSuffix) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0, 10.0}, {}, "latency");
  h.observe_exemplar(5.0, 0xbeef);
  std::ostringstream oss;
  write_prometheus(oss, registry);
  const std::string text = oss.str();
  EXPECT_NE(text.find("h_ms_bucket{le=\"10\"} 1 "
                      "# {trace_id=\"000000000000beef\"} 5.000000"),
            std::string::npos);
  // Exemplar-free buckets keep the plain exposition line.
  EXPECT_NE(text.find("h_ms_bucket{le=\"1\"} 0\n"), std::string::npos);
}

TEST(ExemplarsTest, JsonSnapshotCarriesExemplarsObject) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0});
  h.observe_exemplar(0.5, 0xf);
  std::ostringstream oss;
  write_json_snapshot(oss, registry);
  EXPECT_NE(oss.str().find(
                "\"exemplars\":{\"1\":{\"trace_id\":\"000000000000000f\","
                "\"value\":0.500000}}"),
            std::string::npos);
}

TEST(ExemplarsTest, ExemplarFreeOutputIsByteIdenticalToPlainObserve) {
  // The exemplar feature must cost nothing when unused: a histogram fed
  // through observe() and one fed through observe_exemplar(value, 0)
  // export exactly the same bytes, in both formats.
  Registry plain;
  Registry exemplar_api;
  plain.histogram("h_ms", {1.0, 10.0}).observe(5.0);
  exemplar_api.histogram("h_ms", {1.0, 10.0}).observe_exemplar(5.0, 0);
  for (const bool json : {false, true}) {
    std::ostringstream a;
    std::ostringstream b;
    if (json) {
      write_json_snapshot(a, plain);
      write_json_snapshot(b, exemplar_api);
    } else {
      write_prometheus(a, plain);
      write_prometheus(b, exemplar_api);
    }
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(ExemplarsTest, ExemplarIndexOutOfRangeThrows) {
  Registry registry;
  Histogram& h = registry.histogram("h_ms", {1.0});
  EXPECT_THROW(h.exemplar(2), Error);
}

}  // namespace
}  // namespace ghs::telemetry
