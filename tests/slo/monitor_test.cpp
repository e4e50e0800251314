#include "ghs/slo/monitor.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/util/error.hpp"

namespace ghs::slo {
namespace {

Objective availability(double target = 0.9) {
  return Objective{"avail", ObjectiveKind::kAvailability, target, 0.0};
}

Objective latency(double target, double threshold_ms) {
  return Objective{"lat", ObjectiveKind::kLatencyQuantile, target,
                   threshold_ms};
}

TEST(MonitorTest, CountsGoodAndBadSamples) {
  Monitor monitor({availability()});
  monitor.record(0, 1 * kMicrosecond, true);
  monitor.record(0, 2 * kMicrosecond, true);
  monitor.record(0, 3 * kMicrosecond, false);
  const auto report = monitor.evaluate();
  ASSERT_EQ(report.objectives.size(), 1u);
  const auto& obj = report.objectives[0];
  EXPECT_EQ(obj.samples, 3);
  EXPECT_EQ(obj.good, 2);
  EXPECT_EQ(obj.bad, 1);
  EXPECT_NEAR(obj.compliance, 2.0 / 3.0, 1e-12);
  EXPECT_FALSE(obj.met);
  // Budget is 1 - 0.9 = 0.1; bad fraction 1/3 burns at 10/3 the budget.
  EXPECT_NEAR(obj.budget_burn, (1.0 / 3.0) / 0.1, 1e-9);
}

TEST(MonitorTest, EmptyObjectiveIsCompliant) {
  Monitor monitor({availability()});
  const auto report = monitor.evaluate();
  EXPECT_EQ(report.objectives[0].samples, 0);
  EXPECT_EQ(report.objectives[0].compliance, 1.0);
  EXPECT_TRUE(report.objectives[0].met);
  EXPECT_EQ(report.total_alerts(), 0);
}

TEST(MonitorTest, LatencyObjectiveJudgesAgainstThreshold) {
  Monitor monitor({latency(0.5, 1.0)});
  monitor.record_latency(0, 1 * kMicrosecond, 0.9);  // good
  monitor.record_latency(0, 2 * kMicrosecond, 1.0);  // good (<=)
  monitor.record_latency(0, 3 * kMicrosecond, 1.1);  // bad
  const auto report = monitor.evaluate();
  const auto& obj = report.objectives[0];
  EXPECT_EQ(obj.good, 2);
  EXPECT_EQ(obj.bad, 1);
  EXPECT_TRUE(obj.met);  // 2/3 >= 0.5
}

TEST(MonitorTest, BurnRateAlertNeedsBothWindowsOver) {
  // One rule: long window 1 ms, short window 250 us, threshold 1x, with a
  // 50% target so the budget is 0.5 and burn = 2 * bad_fraction.
  MonitorOptions options;
  options.rules = {BurnRateRule{"only", 1 * kMillisecond,
                                250 * kMicrosecond, 1.0}};
  Monitor monitor({availability(0.5)}, options);
  // A burst of bad samples early, then a long good tail: at the end of
  // the tail the short window has recovered, so no new alerts fire.
  for (int i = 0; i < 10; ++i) {
    monitor.record(0, i * 10 * kMicrosecond, false);
  }
  for (int i = 0; i < 40; ++i) {
    monitor.record(0, (100 + i * 10) * kMicrosecond, true);
  }
  const auto report = monitor.evaluate();
  const auto& burn = report.objectives[0].burn[0];
  EXPECT_EQ(burn.alerts, 1);
  EXPECT_EQ(burn.first_alert, 0);
  EXPECT_GT(burn.peak_burn, 1.0);
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0].objective, "avail");
  EXPECT_EQ(report.alerts[0].severity, "only");
}

TEST(MonitorTest, SteadyLowBurnNeverAlertsFastRule) {
  // 5% bad at a 10% budget burns at 0.5x: under every default threshold.
  // The first bad sample arrives once the windows have filled — a bad
  // FIRST request genuinely is a 10x burn over its one-sample window.
  Monitor monitor({availability(0.9)});
  for (int i = 0; i < 200; ++i) {
    monitor.record(0, i * 20 * kMicrosecond, i % 20 != 19);
  }
  const auto report = monitor.evaluate();
  for (const auto& burn : report.objectives[0].burn) {
    EXPECT_EQ(burn.alerts, 0) << burn.severity;
    EXPECT_EQ(burn.first_alert, -1) << burn.severity;
    EXPECT_GT(burn.peak_burn, 0.0) << burn.severity;
  }
  EXPECT_EQ(report.total_alerts(), 0);
}

TEST(MonitorTest, ReenteringAlertStateCountsTwice) {
  MonitorOptions options;
  options.rules = {BurnRateRule{"only", 100 * kMicrosecond,
                                100 * kMicrosecond, 1.0}};
  Monitor monitor({availability(0.5)}, options);
  // Bad burst, full recovery (window slides past), second bad burst.
  for (int i = 0; i < 5; ++i) monitor.record(0, i * kMicrosecond, false);
  for (int i = 0; i < 50; ++i) {
    monitor.record(0, (200 + i * 10) * kMicrosecond, true);
  }
  for (int i = 0; i < 5; ++i) {
    monitor.record(0, (1000 + i) * kMicrosecond, false);
  }
  const auto report = monitor.evaluate();
  const auto& burn = report.objectives[0].burn[0];
  EXPECT_EQ(burn.alerts, 2);
}

TEST(MonitorTest, AlertsAcrossObjectivesAreTimeOrdered) {
  MonitorOptions options;
  options.rules = {BurnRateRule{"only", 100 * kMicrosecond,
                                100 * kMicrosecond, 1.0}};
  Monitor monitor({availability(0.5), latency(0.5, 1.0)}, options);
  monitor.record_latency(1, 5 * kMicrosecond, 2.0);  // bad at t=5us
  monitor.record(0, 9 * kMicrosecond, false);        // bad at t=9us
  const auto report = monitor.evaluate();
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].objective, "lat");
  EXPECT_EQ(report.alerts[1].objective, "avail");
  EXPECT_LE(report.alerts[0].at, report.alerts[1].at);
}

TEST(MonitorTest, RejectsBadRules) {
  MonitorOptions options;
  options.rules = {BurnRateRule{"bad", 100, 200, 1.0}};  // short > long
  EXPECT_THROW(Monitor({availability()}, options), Error);
  options.rules = {BurnRateRule{"bad", 0, 0, 1.0}};
  EXPECT_THROW(Monitor({availability()}, options), Error);
  Monitor ok({availability()});
  EXPECT_THROW(ok.record(7, 0, true), Error);
}

TEST(MonitorTest, FeedJudgesAWholeServiceRun) {
  serve::ServiceModel model;
  serve::ServiceOptions options;
  options.queue_depth = 4;  // force rejections under a fast burst
  serve::ReductionService service(serve::make_policy("fifo", model), model,
                                  options);
  serve::OpenLoopOptions load;
  load.jobs = 60;
  load.rate_hz = 400000.0;
  load.seed = 7;
  service.submit_all(serve::open_loop_poisson(load));
  service.run();
  const auto sr = service.report();
  ASSERT_GT(sr.rejected, 0) << "test needs a rejecting run";

  Monitor monitor({availability(0.999), latency(0.99, 1.0)});
  monitor.feed(service.outcomes());
  const auto report = monitor.evaluate();
  EXPECT_EQ(report.objectives[0].samples, sr.served + sr.rejected + sr.shed);
  EXPECT_EQ(report.objectives[0].bad, sr.rejected + sr.shed);
  EXPECT_EQ(report.objectives[1].samples, sr.served);
  EXPECT_FALSE(report.objectives[0].met);
}

TEST(MonitorTest, ChaosRunRaisesBurnAlertDeterministically) {
  // A mid-run GPU outage pushes latency over a tight objective; the run
  // must raise at least one burn alert and serialise byte-identically
  // across evaluations.
  fault::FaultPlan plan;
  fault::OutageWindow outage;
  outage.target = fault::Target::kGpu;
  outage.window.begin = 1 * kMillisecond;
  outage.window.end = 2500 * kMicrosecond;
  plan.outages.push_back(outage);

  const auto run = [&plan]() {
    serve::ServiceModel model;
    fault::Injector injector(plan, 7);
    serve::ServiceOptions options;
    options.injector = &injector;
    serve::ReductionService service(serve::make_policy("fifo", model),
                                    model, options);
    serve::OpenLoopOptions load;
    load.jobs = 200;
    load.rate_hz = 100000.0;
    load.seed = 42;
    service.submit_all(serve::open_loop_poisson(load));
    service.run();
    Monitor monitor({availability(0.999), latency(0.99, 0.25)});
    monitor.feed(service.outcomes());
    std::ostringstream os;
    monitor.evaluate().write_json(os);
    return os.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first.find("\"total_alerts\":0"), std::string::npos);
  EXPECT_NE(first.find("\"alerts\":["), std::string::npos);
}

TEST(MonitorTest, ReportJsonGolden) {
  MonitorOptions options;
  options.rules = {BurnRateRule{"only", 1 * kMillisecond,
                                250 * kMicrosecond, 2.0}};
  Monitor monitor({availability(0.5)}, options);
  monitor.record(0, 0, true);
  monitor.record(0, 100 * kMicrosecond, false);
  std::ostringstream os;
  monitor.evaluate().write_json(os);
  EXPECT_EQ(
      os.str(),
      "{\"objectives\":[{\"name\":\"avail\",\"kind\":\"availability\","
      "\"target\":0.500000,\"samples\":2,\"good\":1,\"bad\":1,"
      "\"compliance\":0.500000,\"budget_burn\":1.000000,\"met\":true,"
      "\"burn\":[{\"severity\":\"only\",\"long_window_ms\":1.000000,"
      "\"short_window_ms\":0.250000,\"threshold\":2.000000,"
      "\"peak_burn\":1.000000,\"alerts\":0,\"first_alert_ms\":null}]}],"
      "\"alerts\":[],\"total_alerts\":0}");
}

}  // namespace
}  // namespace ghs::slo
