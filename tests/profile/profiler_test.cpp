#include "ghs/profile/profiler.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/timeseries/tsdb.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::profile {
namespace {

serve::OpenLoopOptions small_workload(double um_fraction = 0.0) {
  serve::OpenLoopOptions options;
  options.shape.min_log2_elements = 16;
  options.shape.max_log2_elements = 20;
  options.shape.um_fraction = um_fraction;
  options.rate_hz = 200000.0;
  options.jobs = 60;
  options.seed = 42;
  return options;
}

/// Runs one service over the workload; the recorder may be null.
serve::ServiceReport run_service(serve::ServiceModel& model,
                                 Recorder* recorder,
                                 ConservationTotals* totals,
                                 const serve::OpenLoopOptions& workload) {
  serve::ServiceOptions options;
  options.profile = recorder;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  service.submit_all(serve::open_loop_poisson(workload));
  service.run();
  if (totals != nullptr) *totals = service.conservation_totals();
  return service.report();
}

TEST(RecorderTest, ConservesServiceBusyTimeAndBytes) {
  serve::ServiceModel model;
  Recorder recorder;
  ConservationTotals totals;
  run_service(model, &recorder, &totals, small_workload(0.5));
  const auto check = recorder.ledger().check(totals);
  EXPECT_TRUE(check.ok());
  EXPECT_GT(totals.gpu_busy_ps, 0);
  EXPECT_GT(totals.um_bytes, 0);
  EXPECT_FALSE(recorder.ledger().empty());
}

TEST(RecorderTest, ServiceReportUnchangedByRecorder) {
  // Attribution is observational: attaching a recorder must not change
  // the served workload's report. (Unified workloads warm the tuner
  // memo-cache differently — the same documented perturbation tracing
  // has — so this byte-identity property is over a non-UM workload.)
  serve::ServiceModel bare_model;
  const auto bare =
      run_service(bare_model, nullptr, nullptr, small_workload());
  serve::ServiceModel profiled_model;
  Recorder recorder;
  const auto profiled =
      run_service(profiled_model, &recorder, nullptr, small_workload());
  std::ostringstream bare_os;
  bare.write_json(bare_os);
  std::ostringstream profiled_os;
  profiled.write_json(profiled_os);
  EXPECT_EQ(bare_os.str(), profiled_os.str());
}

TEST(ProfilerTest, SamplesFoldIntoStacks) {
  serve::ServiceModel model;
  Recorder recorder;
  serve::ServiceOptions options;
  options.profile = &recorder;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  ProfilerOptions profiler_options;
  profiler_options.interval = 10 * kMicrosecond;
  timeseries::Tsdb store;
  Profiler profiler(service.sim(), recorder, profiler_options, &store);
  profiler.start();
  service.submit_all(serve::open_loop_poisson(small_workload()));
  service.run();
  profiler.finish();

  EXPECT_GT(profiler.samples(), 0);
  ASSERT_FALSE(profiler.folded().empty());
  // Each sample contributes one count per registered device.
  std::int64_t counts = 0;
  bool saw_kernel = false;
  for (const auto& [stack, count] : profiler.folded()) {
    counts += count;
    EXPECT_EQ(stack.rfind("node0;", 0), 0u) << stack;
    if (stack.find("gpu.kernel") != std::string::npos) saw_kernel = true;
  }
  EXPECT_EQ(counts, profiler.samples() *
                        static_cast<std::int64_t>(recorder.devices().size()));
  EXPECT_TRUE(saw_kernel);

  // Collapsed output: "stack count" lines, flamegraph.pl-compatible.
  std::ostringstream collapsed;
  profiler.write_collapsed(collapsed);
  const std::string text = collapsed.str();
  EXPECT_NE(text.find("node0;gpu"), std::string::npos);
  EXPECT_EQ(text.find('{'), std::string::npos);

  // Slice tracks coalesce consecutive same-stack samples.
  const auto tracks = profiler.tracks();
  ASSERT_FALSE(tracks.empty());
  for (const auto& track : tracks) {
    for (const auto& slice : track.slices) {
      EXPECT_LT(slice.begin, slice.end);
    }
  }
}

TEST(ProfilerTest, AttributionSeriesMatchLedgerTotals) {
  serve::ServiceModel model;
  Recorder recorder;
  serve::ServiceOptions options;
  options.profile = &recorder;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  ProfilerOptions profiler_options;
  profiler_options.interval = 10 * kMicrosecond;
  timeseries::Tsdb store;
  Profiler profiler(service.sim(), recorder, profiler_options, &store);
  profiler.start();
  service.submit_all(serve::open_loop_poisson(small_workload()));
  service.run();
  profiler.finish();

  // The windowed deltas must telescope to the ledger's final totals: the
  // finish() flush covers whatever the last tick missed.
  const timeseries::Series* tenant_series =
      store.find("ghs_profile_tenant_busy_ps_total{tenant=\"0\"}");
  ASSERT_NE(tenant_series, nullptr);
  ASSERT_EQ(recorder.ledger().tenant_busy().size(), 1u);
  EXPECT_EQ(recorder.ledger().tenant_busy()[0].id, 0);
  EXPECT_DOUBLE_EQ(
      tenant_series->total_sum(),
      static_cast<double>(recorder.ledger().tenant_busy()[0].busy_ps));
  SimTime op_total = 0;
  for (const auto& [op, busy] : recorder.ledger().op_busy()) {
    const std::string key = "ghs_profile_op_busy_ps_total{op=\"" +
                            std::string(workload::case_spec(
                                            static_cast<workload::CaseId>(op))
                                            .name) +
                            "\"}";
    const timeseries::Series* op_series = store.find(key);
    ASSERT_NE(op_series, nullptr) << key;
    EXPECT_DOUBLE_EQ(op_series->total_sum(), static_cast<double>(busy));
    op_total += busy;
  }
  SimTime tenant_total = 0;
  for (const auto& [tenant, busy] : recorder.ledger().tenant_busy()) {
    tenant_total += busy;
  }
  EXPECT_EQ(op_total, tenant_total);
}

TEST(ProfilerTest, FinishWithoutTicksStillFlushes) {
  // Interval longer than the whole run: zero mid-run ticks, but finish()
  // must still take the trailing sample and flush the series.
  serve::ServiceModel model;
  Recorder recorder;
  serve::ServiceOptions options;
  options.profile = &recorder;
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  ProfilerOptions profiler_options;
  profiler_options.interval = 1000 * kMillisecond;
  timeseries::Tsdb store;
  Profiler profiler(service.sim(), recorder, profiler_options, &store);
  profiler.start();
  service.submit_all(serve::open_loop_poisson(small_workload()));
  service.run();
  profiler.finish();
  EXPECT_EQ(profiler.samples(), 1);  // the trailing sample only
  const timeseries::Series* tenant_series =
      store.find("ghs_profile_tenant_busy_ps_total{tenant=\"0\"}");
  ASSERT_NE(tenant_series, nullptr);
  EXPECT_GT(tenant_series->total_sum(), 0.0);
}

}  // namespace
}  // namespace ghs::profile
