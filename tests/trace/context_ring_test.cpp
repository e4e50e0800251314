#include <gtest/gtest.h>

#include "ghs/trace/context.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::trace {
namespace {

TEST(ContextTest, DefaultIsInvalid) {
  Context ctx;
  EXPECT_FALSE(ctx.valid());
}

TEST(ContextTest, ChildKeepsTraceAndLinksParent) {
  Context root{0xabcu, 1, 0};
  EXPECT_TRUE(root.valid());
  Context child = root.child(7);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.span_id, 7u);
  EXPECT_EQ(child.parent_id, root.span_id);
  Context grandchild = child.child(9);
  EXPECT_EQ(grandchild.parent_id, 7u);
  EXPECT_EQ(grandchild.trace_id, root.trace_id);
}

TEST(ContextTest, DerivedTraceIdsAreDeterministicAndNonZero) {
  EXPECT_EQ(derive_trace_id(42), derive_trace_id(42));
  EXPECT_NE(derive_trace_id(42), derive_trace_id(43));
  for (std::int64_t key = 0; key < 1000; ++key) {
    EXPECT_NE(derive_trace_id(key), 0u);
  }
}

TEST(TracerRingTest, DropsOldestBeyondCapacity) {
  Tracer tracer(4);
  for (SimTime t = 0; t < 10; ++t) {
    tracer.record(Track::kGpu, "s" + std::to_string(t), t, t + 1);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and the oldest six were dropped.
  EXPECT_EQ(spans[0].name, "s6");
  EXPECT_EQ(spans[3].name, "s9");
  EXPECT_EQ(tracer.dropped_total(), 6);
}

TEST(TracerRingTest, InstantsRingIndependently) {
  Tracer tracer(2);
  tracer.record(Track::kGpu, "span", 0, 1);
  for (SimTime t = 0; t < 5; ++t) {
    tracer.mark(Track::kServer, "m" + std::to_string(t), t);
  }
  EXPECT_EQ(tracer.spans().size(), 1u);
  const auto instants = tracer.instants();
  ASSERT_EQ(instants.size(), 2u);
  EXPECT_EQ(instants[0].name, "m3");
  EXPECT_EQ(instants[1].name, "m4");
  EXPECT_EQ(tracer.dropped_total(), 3);
}

TEST(TracerRingTest, UnderCapacityDropsNothing) {
  Tracer tracer;
  EXPECT_EQ(tracer.capacity(), Tracer::kDefaultCapacity);
  for (SimTime t = 0; t < 100; ++t) {
    tracer.record(Track::kGpu, "s", t, t + 1);
  }
  EXPECT_EQ(tracer.spans().size(), 100u);
  EXPECT_EQ(tracer.dropped_total(), 0);
}

TEST(TracerRingTest, ClearResetsRingsAndDropCounters) {
  Tracer tracer(2);
  for (SimTime t = 0; t < 5; ++t) tracer.record(Track::kGpu, "s", t, t + 1);
  EXPECT_GT(tracer.dropped_total(), 0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped_total(), 0);
  tracer.record(Track::kGpu, "fresh", 0, 1);
  EXPECT_EQ(tracer.spans()[0].name, "fresh");
}

TEST(TracerRingTest, SpanIdsAreSequential) {
  Tracer tracer;
  EXPECT_EQ(tracer.new_span_id(), 1u);
  EXPECT_EQ(tracer.new_span_id(), 2u);
  EXPECT_EQ(tracer.new_span_id(), 3u);
}

TEST(TracerRingTest, SpansCarryContext) {
  Tracer tracer;
  const Context ctx{derive_trace_id(5), tracer.new_span_id(), 0};
  tracer.record(Track::kJobs, "serve.job", 0, 10, "outcome=served", ctx);
  tracer.mark(Track::kJobs, "serve.admit", 0, ctx.child(tracer.new_span_id()));
  const auto spans = tracer.spans();
  const auto instants = tracer.instants();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(spans[0].ctx.trace_id, ctx.trace_id);
  EXPECT_EQ(instants[0].ctx.parent_id, ctx.span_id);
  EXPECT_TRUE(instants[0].ctx.valid());
}

}  // namespace
}  // namespace ghs::trace
