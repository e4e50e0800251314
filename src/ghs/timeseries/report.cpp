#include "ghs/timeseries/report.hpp"

#include <algorithm>

#include "ghs/stats/summary.hpp"
#include "ghs/util/strings.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::timeseries {

namespace {

/// Utilization at or above which a sample saturates. Busy time is
/// credited at launch, so a sample can exceed 1.0.
constexpr double kUtilizationThreshold = 0.95;
/// Share of the queue capacity at which a queue-depth sample saturates.
constexpr double kQueueThreshold = 0.75;
/// Consecutive saturated scrapes needed before a window is reported.
constexpr std::int64_t kMinWindowPoints = 2;

/// Human-readable series tag: its short labels, or the bare name when
/// unlabelled.
std::string display_name(const std::string& key) {
  return key.find('{') == std::string::npos ? key : short_labels(key);
}

TimelineSeriesStats stats_of(const Series& series, double scale) {
  TimelineSeriesStats out;
  out.series = series.key();
  // Retained data only: dropped rollups have no timestamps left to place a
  // peak at, and their sums are a vanishing share of long runs.
  std::int64_t count = 0;
  double sum = 0.0;
  bool have_peak = false;
  const auto consider_peak = [&](double value, SimTime at) {
    if (!have_peak || value > out.peak) {
      out.peak = value;
      out.peak_at = at;
      have_peak = true;
    }
  };
  std::vector<double> raw_values;
  raw_values.reserve(series.raw().size());
  for (const auto& tier : series.tiers()) {
    for (const Rollup& rollup : tier) {
      count += rollup.count;
      sum += rollup.sum * scale;
      consider_peak(rollup.max * scale, rollup.end);
    }
  }
  for (const Sample& sample : series.raw()) {
    ++count;
    const double value = sample.value * scale;
    sum += value;
    raw_values.push_back(value);
    consider_peak(value, sample.at);
  }
  out.samples = count;
  out.mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
  out.p95 = raw_values.empty() ? 0.0
                               : stats::percentile(std::move(raw_values), 0.95);
  return out;
}

void find_saturation(const Series& series, double scale, double threshold,
                     std::vector<SaturationWindow>& out) {
  SaturationWindow window;
  window.series = series.key();
  std::int64_t run = 0;
  const auto flush = [&]() {
    if (run >= kMinWindowPoints) out.push_back(window);
    run = 0;
    window.peak = 0.0;
  };
  for (const Sample& sample : series.raw()) {
    const double value = sample.value * scale;
    if (value >= threshold) {
      if (run == 0) window.begin = sample.at;
      window.end = sample.at;
      window.peak = std::max(window.peak, value);
      window.points = ++run;
    } else {
      flush();
    }
  }
  flush();
}

void write_stats_json(Writer& w,
                      const std::vector<TimelineSeriesStats>& stats) {
  w << "[";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const auto& s = stats[i];
    if (i > 0) w << ",";
    w << "{\"series\":\"" << JsonEscaped{s.series}
      << "\",\"samples\":" << s.samples << ",\"mean\":" << Fixed{s.mean, 6}
      << ",\"p95\":" << Fixed{s.p95, 6} << ",\"peak\":" << Fixed{s.peak, 6}
      << ",\"peak_at_ms\":" << Fixed{to_millis(s.peak_at), 6} << "}";
  }
  w << "]";
}

}  // namespace

TimelineReport build_timeline(const Tsdb& store,
                              const TimelineOptions& options) {
  TimelineReport report;
  report.interval = options.interval;
  const double util_scale =
      options.interval > 0 ? 1.0 / static_cast<double>(options.interval) : 1.0;
  const double queue_limit =
      kQueueThreshold * static_cast<double>(options.queue_capacity);
  store.visit([&](const Series& series) {
    if (series.key().starts_with("ghs_serve_device_busy_ps_total")) {
      report.utilization.push_back(stats_of(series, util_scale));
      find_saturation(series, util_scale, kUtilizationThreshold,
                      report.saturation);
    } else if (series.key().starts_with("ghs_profile_tenant_busy_ps_total")) {
      // Profiler attribution series: busy-ps deltas per tenant, same
      // utilization scaling as the device series (a tenant saturating a
      // device alone reads 1.0). No saturation windows — a hot tenant is
      // not an incident by itself.
      report.utilization.push_back(stats_of(series, util_scale));
    } else if (series.key().starts_with("ghs_serve_queue_depth")) {
      report.queue_depth.push_back(stats_of(series, 1.0));
      find_saturation(series, 1.0, queue_limit, report.saturation);
    }
  });
  // Windows currently group by series (store order); present them the way
  // an operator reads an incident: in time order.
  std::stable_sort(report.saturation.begin(), report.saturation.end(),
                   [](const SaturationWindow& a, const SaturationWindow& b) {
                     return a.begin < b.begin;
                   });
  return report;
}

void TimelineReport::write_json(std::ostream& os) const {
  Writer w(os);
  w << "{\"interval_us\":"
    << Fixed{static_cast<double>(interval) / static_cast<double>(kMicrosecond),
             6}
    << ",\"utilization\":";
  write_stats_json(w, utilization);
  w << ",\"queue_depth\":";
  write_stats_json(w, queue_depth);
  w << ",\"saturation\":[";
  for (std::size_t i = 0; i < saturation.size(); ++i) {
    const auto& s = saturation[i];
    if (i > 0) w << ",";
    w << "{\"series\":\"" << JsonEscaped{s.series}
      << "\",\"begin_ms\":" << Fixed{to_millis(s.begin), 6}
      << ",\"end_ms\":" << Fixed{to_millis(s.end), 6}
      << ",\"points\":" << s.points << ",\"peak\":" << Fixed{s.peak, 6}
      << "}";
  }
  w << "]}";
}

void TimelineReport::write_table(std::ostream& os) const {
  Writer w(os);
  const auto ms = [](SimTime t) { return Fixed{to_millis(t), 3}; };
  w << "timeline ("
    << Fixed{static_cast<double>(interval) / static_cast<double>(kMicrosecond),
             0}
    << "us scrapes): " << utilization.size() << " utilization, "
    << queue_depth.size() << " queue series, " << saturation.size()
    << " saturation window(s)\n";
  const auto print_stats = [&](const char* what,
                               const std::vector<TimelineSeriesStats>& rows) {
    for (const auto& s : rows) {
      w << "  " << pad_right(what, 6) << " "
        << pad_right(display_name(s.series), 28) << " mean "
        << pad_left(format_fixed(s.mean, 3), 8) << "  p95 "
        << pad_left(format_fixed(s.p95, 3), 8) << "  peak "
        << pad_left(format_fixed(s.peak, 3), 8) << " @" << ms(s.peak_at)
        << "ms\n";
    }
  };
  print_stats("util", utilization);
  print_stats("queue", queue_depth);
  for (const auto& s : saturation) {
    w << "  SATURATED " << pad_right(display_name(s.series), 28) << " ["
      << ms(s.begin) << "ms, " << ms(s.end) << "ms] " << s.points
      << " scrape(s) peak " << Fixed{s.peak, 3} << "\n";
  }
}

}  // namespace ghs::timeseries
