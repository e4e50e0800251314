#include "ghs/slo/monitor.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::slo {

namespace {

// The error budget is 1 - target; a perfect target would make the burn
// rate divide by zero, so it is floored at one-in-a-billion.
double budget_of(double target) {
  return std::max(1.0 - target, 1e-9);
}

}  // namespace

const char* objective_kind_name(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kAvailability:
      return "availability";
    case ObjectiveKind::kLatencyQuantile:
      return "latency_quantile";
  }
  return "unknown";
}

std::vector<BurnRateRule> default_burn_rules() {
  // Sim-time analogue of the SRE workbook pairs. A serving campaign here
  // spans single-digit milliseconds where a production quarter spans
  // months, so the 5m+1h @ 14.4x page becomes 250us+1ms @ 14.4x and the
  // 6h+3d @ 1x ticket becomes 1ms+5ms @ 1x. The long/short ratio (the
  // part that makes the rule robust) is preserved.
  std::vector<BurnRateRule> rules;
  rules.push_back(BurnRateRule{"fast", 1 * kMillisecond,
                               250 * kMicrosecond, 14.4});
  rules.push_back(BurnRateRule{"slow", 5 * kMillisecond,
                               1 * kMillisecond, 1.0});
  return rules;
}

void Report::write_json(std::ostream& os) const {
  Writer w(os);
  const auto fixed = [](double value) { return Fixed{value, 6}; };
  const auto ms = [](SimTime t) { return Fixed{to_millis(t), 6}; };
  w << "{\"objectives\":[";
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const auto& obj = objectives[i];
    if (i > 0) w << ",";
    w << "{\"name\":\"" << obj.name << "\",\"kind\":\""
      << objective_kind_name(obj.kind) << "\",\"target\":" << fixed(obj.target);
    if (obj.kind == ObjectiveKind::kLatencyQuantile) {
      w << ",\"threshold_ms\":" << fixed(obj.threshold_ms);
    }
    w << ",\"samples\":" << obj.samples << ",\"good\":" << obj.good
      << ",\"bad\":" << obj.bad << ",\"compliance\":" << fixed(obj.compliance)
      << ",\"budget_burn\":" << fixed(obj.budget_burn)
      << ",\"met\":" << (obj.met ? "true" : "false") << ",\"burn\":[";
    for (std::size_t j = 0; j < obj.burn.size(); ++j) {
      const auto& rule = obj.burn[j];
      if (j > 0) w << ",";
      w << "{\"severity\":\"" << rule.severity
        << "\",\"long_window_ms\":" << ms(rule.long_window)
        << ",\"short_window_ms\":" << ms(rule.short_window)
        << ",\"threshold\":" << fixed(rule.threshold)
        << ",\"peak_burn\":" << fixed(rule.peak_burn)
        << ",\"alerts\":" << rule.alerts << ",\"first_alert_ms\":";
      if (rule.first_alert < 0) {
        w << "null";
      } else {
        w << ms(rule.first_alert);
      }
      w << "}";
    }
    w << "]}";
  }
  w << "],\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& alert = alerts[i];
    if (i > 0) w << ",";
    w << "{\"objective\":\"" << alert.objective << "\",\"severity\":\""
      << alert.severity << "\",\"at_ms\":" << ms(alert.at)
      << ",\"burn_long\":" << fixed(alert.burn_long)
      << ",\"burn_short\":" << fixed(alert.burn_short) << "}";
  }
  w << "],\"total_alerts\":" << total_alerts() << "}";
}

Monitor::Monitor(std::vector<Objective> objectives, MonitorOptions options)
    : objectives_(std::move(objectives)), options_(std::move(options)) {
  for (const auto& rule : options_.rules) {
    GHS_REQUIRE(rule.long_window > 0 && rule.short_window > 0,
                "burn rule " << rule.severity << " needs positive windows");
    GHS_REQUIRE(rule.short_window <= rule.long_window,
                "burn rule " << rule.severity
                             << " short window exceeds long window");
  }
  samples_.resize(objectives_.size());
}

void Monitor::record(std::size_t index, SimTime at, bool good) {
  GHS_REQUIRE(index < objectives_.size(), "objective index " << index);
  samples_[index].push_back(Sample{at, good});
}

void Monitor::record_latency(std::size_t index, SimTime at,
                             double latency_ms) {
  GHS_REQUIRE(index < objectives_.size(), "objective index " << index);
  const auto& obj = objectives_[index];
  const bool good = obj.kind != ObjectiveKind::kLatencyQuantile ||
                    latency_ms <= obj.threshold_ms;
  samples_[index].push_back(Sample{at, good});
}

void Monitor::feed(const serve::Outcomes& outcomes) {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const auto& obj = objectives_[i];
    samples_[i].reserve(samples_[i].size() + outcomes.served.size() +
                        outcomes.rejected.size() + outcomes.shed.size());
    if (obj.kind == ObjectiveKind::kAvailability) {
      for (const auto& times : outcomes.served) {
        record(i, times.completion, true);
      }
      for (const SimTime at : outcomes.rejected) record(i, at, false);
      for (const SimTime at : outcomes.shed) record(i, at, false);
    } else {
      for (const auto& times : outcomes.served) {
        record_latency(i, times.completion, to_millis(times.latency()));
      }
    }
  }
}

Report Monitor::evaluate() const {
  Report report;
  report.objectives.reserve(objectives_.size());
  const auto by_time = [](const Sample& a, const Sample& b) {
    return a.at < b.at;
  };
  std::vector<Sample> sorted;
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const auto& obj = objectives_[i];
    // The feed is a few time-ordered runs (completions, then rejections,
    // then sheds); a stable sort keeps same-instant samples in feed order,
    // and a feed already in order needs no copy.
    const bool in_order = std::ranges::is_sorted(samples_[i], by_time);
    if (!in_order) {
      sorted = samples_[i];
      std::ranges::stable_sort(sorted, by_time);
    }
    const std::vector<Sample>& samples = in_order ? samples_[i] : sorted;
    const double budget = budget_of(obj.target);

    ObjectiveReport out;
    out.name = obj.name;
    out.kind = obj.kind;
    out.target = obj.target;
    out.threshold_ms = obj.threshold_ms;
    out.samples = static_cast<std::int64_t>(samples.size());
    for (const auto& sample : samples) {
      if (sample.good) {
        ++out.good;
      } else {
        ++out.bad;
      }
    }
    out.compliance =
        samples.empty()
            ? 1.0
            : static_cast<double>(out.good) / static_cast<double>(samples.size());
    out.budget_burn = (1.0 - out.compliance) / budget;
    out.met = out.compliance >= obj.target;

    for (const auto& rule : options_.rules) {
      BurnReport burn;
      burn.severity = rule.severity;
      burn.long_window = rule.long_window;
      burn.short_window = rule.short_window;
      burn.threshold = rule.threshold;

      // After sample k each window is the run of samples in
      // (t_k - window, t_k]: its first index only moves forward, and its
      // integer bad count is exactly the 0/1 sum a sliding deque held, so
      // the burn rates are the same doubles.
      struct Window {
        SimTime width;
        std::size_t first = 0;
        std::int64_t bad = 0;

        double burn(const std::vector<Sample>& samples, std::size_t k,
                    double budget) {
          if (!samples[k].good) ++bad;
          while (samples[first].at <= samples[k].at - width) {
            if (!samples[first].good) --bad;
            ++first;
          }
          return (static_cast<double>(bad) /
                  static_cast<double>(k - first + 1)) /
                 budget;
        }
      };
      Window long_w{rule.long_window};
      Window short_w{rule.short_window};
      bool alerting = false;
      for (std::size_t k = 0; k < samples.size(); ++k) {
        const SimTime now = samples[k].at;
        const double burn_long = long_w.burn(samples, k, budget);
        const double burn_short = short_w.burn(samples, k, budget);
        burn.peak_burn = std::max(burn.peak_burn, burn_long);

        const bool over =
            burn_long > rule.threshold && burn_short > rule.threshold;
        if (over && !alerting) {
          ++burn.alerts;
          if (burn.first_alert < 0) burn.first_alert = now;
          report.alerts.push_back(
              Alert{obj.name, rule.severity, now, burn_long, burn_short});
        }
        alerting = over;
      }
      out.burn.push_back(std::move(burn));
    }
    report.objectives.push_back(std::move(out));
  }
  // Alerts were appended objective-major; present them in time order
  // (ties keep objective order) the way an on-call pager would.
  std::stable_sort(report.alerts.begin(), report.alerts.end(),
                   [](const Alert& a, const Alert& b) { return a.at < b.at; });
  return report;
}

}  // namespace ghs::slo
