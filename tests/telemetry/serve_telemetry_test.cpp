// End-to-end telemetry: a small serve workload with unified-memory tenants
// must light up instruments from every layer (sim, gpu, um, tuner, serve),
// and same-seed runs must export byte-identical JSON snapshots.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs {
namespace {

std::string run_workload(telemetry::Registry& registry,
                         telemetry::FlightRecorder& flight,
                         std::uint64_t seed) {
  const telemetry::Sink sink{&registry, &flight};

  serve::ServiceModelOptions model_options;
  model_options.telemetry = sink;
  serve::ServiceModel model(model_options);

  serve::OpenLoopOptions open;
  open.shape.min_log2_elements = 12;
  open.shape.max_log2_elements = 14;
  open.shape.um_fraction = 0.5;
  open.rate_hz = 50000.0;
  open.jobs = 24;
  open.seed = seed;

  serve::ServiceOptions options;
  options.telemetry = sink;
  serve::ReductionService service(serve::make_policy("bandwidth", model),
                                  model, options);
  service.submit_all(serve::open_loop_poisson(open));
  service.run();

  std::ostringstream oss;
  telemetry::write_json_snapshot(oss, registry);
  return oss.str();
}

TEST(ServeTelemetryTest, AllLayersReportNonZeroInstruments) {
  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  run_workload(registry, flight, 42);

  EXPECT_GT(registry.counter("ghs_sim_events_total").value(), 0);
  EXPECT_GT(registry.counter("ghs_gpu_kernels_total").value(), 0);
  EXPECT_GT(registry.counter("ghs_um_fault_migrations_total").value(), 0);
  EXPECT_GT(
      registry.counter("ghs_um_migrated_bytes_total", {{"dest", "hbm"}})
          .value(),
      0);
  EXPECT_GT(registry.counter("ghs_tuner_runs_total").value(), 0);
  EXPECT_GT(registry.counter("ghs_tuner_cache_misses_total").value(), 0);
  EXPECT_GT(registry.counter("ghs_serve_jobs_submitted_total").value(), 0);
  EXPECT_GT(registry.counter("ghs_serve_jobs_completed_total").value(), 0);
  EXPECT_GT(registry
                .counter("ghs_serve_launches_total", {{"device", "gpu"}})
                .value(),
            0);
  // The flight recorder saw structured events from more than one layer.
  bool saw_serve = false;
  bool saw_um = false;
  for (const auto& event : flight.events()) {
    if (event.layer == "serve") saw_serve = true;
    if (event.layer == "um") saw_um = true;
  }
  EXPECT_TRUE(saw_serve);
  EXPECT_TRUE(saw_um);
}

TEST(ServeTelemetryTest, SameSeedRunsSnapshotByteIdentical) {
  telemetry::Registry registry_a;
  telemetry::FlightRecorder flight_a;
  telemetry::Registry registry_b;
  telemetry::FlightRecorder flight_b;
  const std::string a = run_workload(registry_a, flight_a, 7);
  const std::string b = run_workload(registry_b, flight_b, 7);
  EXPECT_EQ(a, b);
  // And a different seed actually changes the numbers, so the equality
  // above is not vacuous.
  telemetry::Registry registry_c;
  telemetry::FlightRecorder flight_c;
  const std::string c = run_workload(registry_c, flight_c, 8);
  EXPECT_NE(a, c);
}

TEST(ServeTelemetryTest, ExemplarsNameOnlyTracesTheSamplerKeeps) {
  // An exemplar points a reader at a trace, so it may name only a trace
  // the tracer kept: a sampled-out job observes without one.
  telemetry::Registry registry;
  serve::ServiceModel model;
  serve::OpenLoopOptions open;
  open.shape.min_log2_elements = 12;
  open.shape.max_log2_elements = 16;
  open.rate_hz = 50000.0;
  open.jobs = 400;
  open.seed = 7;
  trace::Tracer tracer;
  tracer.set_sampler({0.05, 0});
  serve::ServiceOptions options;
  options.telemetry.metrics = &registry;
  serve::ReductionService service(serve::make_policy("bandwidth", model),
                                  model, options, &tracer);
  service.submit_all(serve::open_loop_poisson(open));
  service.run();
  ASSERT_GT(tracer.dropped_by_sampler(), 0);

  std::set<std::uint64_t> kept;
  for (const auto& span : tracer.spans()) kept.insert(span.ctx.trace_id);
  int exemplars = 0;
  registry.visit([&](const telemetry::Registry::View& view) {
    if (view.histogram == nullptr) return;
    for (std::size_t i = 0; i <= view.histogram->bounds().size(); ++i) {
      const std::uint64_t id = view.histogram->exemplar(i).trace_id;
      if (id == 0) continue;
      ++exemplars;
      EXPECT_EQ(kept.count(id), 1u)
          << view.name << " bucket " << i << " names dropped trace " << id;
    }
  });
  EXPECT_GT(exemplars, 0);
}

TEST(ServeTelemetryTest, NullSinkStillServes) {
  // The opt-in contract: with no sink wired anywhere, the same stack runs
  // untouched — no registry needed, no instruments, no crashes.
  serve::ServiceModel model;
  serve::OpenLoopOptions open;
  open.jobs = 4;
  serve::ReductionService service(serve::make_policy("fifo", model), model);
  service.submit_all(serve::open_loop_poisson(open));
  service.run();
  EXPECT_EQ(service.report().served, 4);
}

}  // namespace
}  // namespace ghs
