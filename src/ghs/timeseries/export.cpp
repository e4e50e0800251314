#include "ghs/timeseries/export.hpp"

#include <string>

#include "ghs/util/strings.hpp"

namespace ghs::timeseries {

namespace {

/// A rollup's min,mean,max,last, comma-separated.
void write_rollup_values(std::ostream& os, const Rollup& rollup) {
  os << format_fixed(rollup.min, 6) << "," << format_fixed(rollup.mean(), 6)
     << "," << format_fixed(rollup.max, 6) << ","
     << format_fixed(rollup.last, 6);
}

void write_rollup_row(std::ostream& os, const Rollup& rollup) {
  os << "[" << rollup.begin << "," << rollup.end << "," << rollup.count
     << ",";
  write_rollup_values(os, rollup);
  os << "]";
}

}  // namespace

void write_series_json(std::ostream& os, const Tsdb& store,
                       const SeriesMeta& meta) {
  os << "{\"format\":\"ghs-series-v1\",\"interval_ps\":" << meta.interval
     << ",\"scrapes\":" << meta.scrapes
     << ",\"series_count\":" << store.size()
     << ",\"points\":" << store.total_points()
     << ",\"dropped\":" << store.total_dropped() << ",\"series\":{";
  bool first = true;
  store.visit([&](const Series& series) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    write_json_escaped(os, series.key());
    os << "\":{\"kind\":\"" << series_kind_name(series.kind())
       << "\",\"points\":" << series.points()
       << ",\"dropped\":" << series.dropped()
       << ",\"sum\":" << format_fixed(series.total_sum(), 6)
       << ",\"dropped_sum\":" << format_fixed(series.dropped_sum(), 6)
       << ",\"samples\":[";
    bool first_sample = true;
    for (const Sample& sample : series.raw()) {
      if (!first_sample) os << ",";
      first_sample = false;
      os << "[" << sample.at << "," << format_fixed(sample.value, 6) << "]";
    }
    os << "],\"rollups\":[";
    for (std::size_t tier = 0; tier < series.tiers().size(); ++tier) {
      if (tier > 0) os << ",";
      os << "{\"tier\":" << tier + 1 << ",\"rows\":[";
      bool first_row = true;
      for (const Rollup& rollup : series.tiers()[tier]) {
        if (!first_row) os << ",";
        first_row = false;
        write_rollup_row(os, rollup);
      }
      os << "]}";
    }
    os << "]}";
  });
  os << "}}";
}

void write_series_csv(std::ostream& os, const Tsdb& store,
                      const SeriesMeta& meta) {
  os << "# ghs-series-v1 interval_ps=" << meta.interval
     << " scrapes=" << meta.scrapes << "\n";
  os << "series,kind,tier,begin_ps,end_ps,count,min,mean,max,last\n";
  store.visit([&](const Series& series) {
    // CSV field quoting: keys carry '{', '"' and ',' in label blocks.
    std::string quoted = "\"";
    for (char c : series.key()) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += "\"";
    const char* kind = series_kind_name(series.kind());
    for (std::size_t tier = 0; tier < series.tiers().size(); ++tier) {
      // Oldest data first: higher tiers hold older rollups.
      const std::size_t t = series.tiers().size() - 1 - tier;
      for (const Rollup& rollup : series.tiers()[t]) {
        os << quoted << "," << kind << "," << t + 1 << "," << rollup.begin
           << "," << rollup.end << "," << rollup.count << ",";
        write_rollup_values(os, rollup);
        os << "\n";
      }
    }
    for (const Sample& sample : series.raw()) {
      const std::string value = format_fixed(sample.value, 6);
      os << quoted << "," << kind << ",0," << sample.at << "," << sample.at
         << ",1," << value << "," << value << "," << value << "," << value
         << "\n";
    }
  });
}

std::vector<trace::CounterTrack> counter_tracks(const Tsdb& store,
                                                SimTime interval) {
  std::vector<trace::CounterTrack> tracks;
  store.visit([&](const Series& series) {
    const std::string& key = series.key();
    std::string name;
    double scale = 1.0;
    if (key.starts_with("ghs_serve_queue_depth")) {
      name = "queue depth";
    } else if (key.starts_with("ghs_serve_device_busy_ps_total")) {
      // Busy picoseconds per scrape over the interval = utilization. A
      // launch's whole service time is credited at launch, so a single
      // tick can exceed 1.0; windows average out (docs/OBSERVABILITY.md).
      name = "utilization";
      scale = interval > 0 ? 1.0 / static_cast<double>(interval) : 1.0;
    } else if (key.starts_with("ghs_um_resident_bytes")) {
      name = "um resident MiB";
      scale = 1.0 / (1024.0 * 1024.0);
    } else if (key.starts_with("ghs_serve_breaker_state")) {
      name = "breaker state";
    } else if (key.starts_with("ghs_membership_node_state")) {
      // 0 alive, 1 suspect, 2 dead, 3 draining, 4 left — a step function
      // that makes crash/detect/rejoin windows visible on the timeline.
      name = "membership state";
    } else {
      return;
    }
    const std::string labels = short_labels(key);
    if (!labels.empty()) name += " " + labels;
    trace::CounterTrack track;
    track.name = std::move(name);
    track.samples.reserve(series.raw().size());
    for (const Sample& sample : series.raw()) {
      track.samples.push_back(
          trace::CounterSample{sample.at, sample.value * scale});
    }
    if (!track.samples.empty()) tracks.push_back(std::move(track));
  });
  return tracks;
}

}  // namespace ghs::timeseries
