#include "ghs/slo/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

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

/// The evaluation as it was before the linear sweep: each objective's
/// samples stable-sorted by time, then pushed through two sliding windows
/// per rule whose deques hold exactly (t - w, t]. The reference the sweep
/// must match bit for bit.
Report reference_evaluate(
    const std::vector<Objective>& objectives, const MonitorOptions& options,
    std::vector<std::vector<std::pair<SimTime, bool>>> fed) {
  struct Window {
    SimTime width;
    std::deque<std::pair<SimTime, double>> samples;
    double sum = 0.0;

    double push(SimTime at, double value) {
      samples.emplace_back(at, value);
      sum += value;
      while (samples.front().first <= at - width) {
        sum -= samples.front().second;
        samples.pop_front();
      }
      return sum / static_cast<double>(samples.size());
    }
  };
  Report report;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const Objective& obj = objectives[i];
    auto& samples = fed[i];
    std::stable_sort(samples.begin(), samples.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const double budget = std::max(1.0 - obj.target, 1e-9);
    ObjectiveReport out;
    out.name = obj.name;
    out.kind = obj.kind;
    out.target = obj.target;
    out.threshold_ms = obj.threshold_ms;
    out.samples = static_cast<std::int64_t>(samples.size());
    for (const auto& [at, good] : samples) ++(good ? out.good : out.bad);
    out.compliance = samples.empty() ? 1.0
                                     : static_cast<double>(out.good) /
                                           static_cast<double>(samples.size());
    out.budget_burn = (1.0 - out.compliance) / budget;
    out.met = out.compliance >= obj.target;
    for (const BurnRateRule& rule : options.rules) {
      BurnReport burn;
      burn.severity = rule.severity;
      burn.long_window = rule.long_window;
      burn.short_window = rule.short_window;
      burn.threshold = rule.threshold;
      Window long_w{rule.long_window, {}};
      Window short_w{rule.short_window, {}};
      bool alerting = false;
      for (const auto& [at, good] : samples) {
        const double bad = good ? 0.0 : 1.0;
        const double burn_long = long_w.push(at, bad) / budget;
        const double burn_short = short_w.push(at, bad) / budget;
        burn.peak_burn = std::max(burn.peak_burn, burn_long);
        const bool over =
            burn_long > rule.threshold && burn_short > rule.threshold;
        if (over && !alerting) {
          ++burn.alerts;
          if (burn.first_alert < 0) burn.first_alert = at;
          report.alerts.push_back(
              Alert{obj.name, rule.severity, at, burn_long, burn_short});
        }
        alerting = over;
      }
      out.burn.push_back(std::move(burn));
    }
    report.objectives.push_back(std::move(out));
  }
  std::stable_sort(report.alerts.begin(), report.alerts.end(),
                   [](const Alert& a, const Alert& b) { return a.at < b.at; });
  return report;
}

TEST(MonitorPropertyTest, SweepMatchesSortAndSlidingWindows) {
  Rng rng(2718);
  const double targets[] = {0.5, 0.9, 0.99, 0.999};
  const double thresholds[] = {0.5, 1.0, 2.0, 14.4};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Objective> objectives;
    const int n_objectives = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < n_objectives; ++i) {
      objectives.push_back(Objective{"o" + std::to_string(i),
                                     ObjectiveKind::kAvailability,
                                     targets[rng.next_below(4)], 0.0});
    }
    MonitorOptions options;
    options.rules.clear();
    const int n_rules = 1 + static_cast<int>(rng.next_below(3));
    for (int r = 0; r < n_rules; ++r) {
      const SimTime long_window =
          static_cast<SimTime>(1 + rng.next_below(400)) * kMicrosecond;
      const SimTime short_window =
          1 + static_cast<SimTime>(rng.next_below(
                  static_cast<std::uint64_t>(long_window)));
      options.rules.push_back(BurnRateRule{"r" + std::to_string(r),
                                           long_window, short_window,
                                           thresholds[rng.next_below(4)]});
    }
    Monitor monitor(objectives, options);
    std::vector<std::vector<std::pair<SimTime, bool>>> fed(objectives.size());
    for (std::size_t i = 0; i < objectives.size(); ++i) {
      // A few time-ordered runs, as a feed makes (completions, then
      // rejections, then sheds), or, one trial in five, many short ones.
      const bool shuffled = rng.next_below(5) == 0;
      const int runs = shuffled ? 40 : 1 + static_cast<int>(rng.next_below(4));
      const double bad_share = rng.next_double();
      for (int run = 0; run < runs; ++run) {
        SimTime at = static_cast<SimTime>(rng.next_below(50)) * kMicrosecond;
        const int length = static_cast<int>(rng.next_below(shuffled ? 8 : 300));
        for (int k = 0; k < length; ++k) {
          // Same-instant ties are common: half the steps do not advance.
          if (rng.next_below(2) == 0) {
            at += static_cast<SimTime>(rng.next_below(20)) * kMicrosecond;
          }
          const bool good = rng.next_double() >= bad_share;
          monitor.record(i, at, good);
          fed[i].emplace_back(at, good);
        }
      }
    }
    const Report got = monitor.evaluate();
    const Report want = reference_evaluate(objectives, options, fed);
    std::ostringstream got_json;
    std::ostringstream want_json;
    got.write_json(got_json);
    want.write_json(want_json);
    ASSERT_EQ(got_json.str(), want_json.str()) << "trial " << trial;
    ASSERT_EQ(got.alerts.size(), want.alerts.size()) << "trial " << trial;
    for (std::size_t a = 0; a < got.alerts.size(); ++a) {
      EXPECT_EQ(got.alerts[a].objective, want.alerts[a].objective);
      EXPECT_EQ(got.alerts[a].at, want.alerts[a].at);
      EXPECT_EQ(got.alerts[a].burn_long, want.alerts[a].burn_long);
      EXPECT_EQ(got.alerts[a].burn_short, want.alerts[a].burn_short);
    }
    for (std::size_t o = 0; o < got.objectives.size(); ++o) {
      for (std::size_t r = 0; r < options.rules.size(); ++r) {
        EXPECT_EQ(got.objectives[o].burn[r].peak_burn,
                  want.objectives[o].burn[r].peak_burn);
      }
    }
  }
}

}  // namespace
}  // namespace ghs::slo
