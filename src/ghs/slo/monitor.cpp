#include "ghs/slo/monitor.hpp"

#include <algorithm>

#include "ghs/timeseries/query.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

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
  os << "{\"objectives\":[";
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    const auto& obj = objectives[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << obj.name << "\",\"kind\":\""
       << objective_kind_name(obj.kind)
       << "\",\"target\":" << format_fixed(obj.target, 6);
    if (obj.kind == ObjectiveKind::kLatencyQuantile) {
      os << ",\"threshold_ms\":" << format_fixed(obj.threshold_ms, 6);
    }
    os << ",\"samples\":" << obj.samples << ",\"good\":" << obj.good
       << ",\"bad\":" << obj.bad
       << ",\"compliance\":" << format_fixed(obj.compliance, 6)
       << ",\"budget_burn\":" << format_fixed(obj.budget_burn, 6)
       << ",\"met\":" << (obj.met ? "true" : "false") << ",\"burn\":[";
    for (std::size_t j = 0; j < obj.burn.size(); ++j) {
      const auto& rule = obj.burn[j];
      if (j > 0) os << ",";
      os << "{\"severity\":\"" << rule.severity << "\",\"long_window_ms\":"
         << format_fixed(to_millis(rule.long_window), 6)
         << ",\"short_window_ms\":"
         << format_fixed(to_millis(rule.short_window), 6)
         << ",\"threshold\":" << format_fixed(rule.threshold, 6)
         << ",\"peak_burn\":" << format_fixed(rule.peak_burn, 6)
         << ",\"alerts\":" << rule.alerts << ",\"first_alert_ms\":";
      if (rule.first_alert < 0) {
        os << "null";
      } else {
        os << format_fixed(to_millis(rule.first_alert), 6);
      }
      os << "}";
    }
    os << "]}";
  }
  os << "],\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& alert = alerts[i];
    if (i > 0) os << ",";
    os << "{\"objective\":\"" << alert.objective << "\",\"severity\":\""
       << alert.severity
       << "\",\"at_ms\":" << format_fixed(to_millis(alert.at), 6)
       << ",\"burn_long\":" << format_fixed(alert.burn_long, 6)
       << ",\"burn_short\":" << format_fixed(alert.burn_short, 6) << "}";
  }
  os << "],\"total_alerts\":" << total_alerts() << "}";
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
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const auto& obj = objectives_[i];
    // Completions, rejections, and sheds were fed in bookkeeping order;
    // the sliding windows need strict time order. stable_sort keeps
    // same-instant samples in feed order so evaluation is deterministic.
    std::vector<Sample> samples = samples_[i];
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample& a, const Sample& b) {
                       return a.at < b.at;
                     });

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
    out.budget_burn = (1.0 - out.compliance) / budget_of(obj.target);
    out.met = out.compliance >= obj.target;

    for (const auto& rule : options_.rules) {
      BurnReport burn;
      burn.severity = rule.severity;
      burn.long_window = rule.long_window;
      burn.short_window = rule.short_window;
      burn.threshold = rule.threshold;

      // Each sample pushed as 0 (good) / 1 (bad) into a pair of sliding
      // windows; after push the windows hold exactly (t - w, t], so
      // sum()/count() is the windowed bad fraction. The 0/1 running sums
      // are exact in doubles, so this reproduces the old two-pointer
      // sweep's reports byte for byte.
      timeseries::SlidingWindow long_w(rule.long_window);
      timeseries::SlidingWindow short_w(rule.short_window);
      bool alerting = false;
      for (std::size_t k = 0; k < samples.size(); ++k) {
        const SimTime now = samples[k].at;
        const double bad = samples[k].good ? 0.0 : 1.0;
        long_w.push(now, bad);
        short_w.push(now, bad);
        const double burn_long =
            (long_w.sum() / static_cast<double>(long_w.count())) /
            budget_of(obj.target);
        const double burn_short =
            (short_w.sum() / static_cast<double>(short_w.count())) /
            budget_of(obj.target);
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
