#include "ghs/timeseries/export.hpp"

#include <string>

#include "ghs/util/writer.hpp"

namespace ghs::timeseries {

namespace {

/// One row of either dump: begin,end,count,min,mean,max,last. A raw
/// sample is the count-1 rollup of itself.
void write_row(Writer& w, const Rollup& rollup) {
  w << rollup.begin << "," << rollup.end << "," << rollup.count << ","
    << Fixed{rollup.min, 6} << "," << Fixed{rollup.mean(), 6} << ","
    << Fixed{rollup.max, 6} << "," << Fixed{rollup.last, 6};
}

}  // namespace

void write_series_json(std::ostream& os, const Tsdb& store,
                       const SeriesMeta& meta) {
  Writer w(os);
  w << "{\"format\":\"ghs-series-v1\",\"interval_ps\":" << meta.interval
    << ",\"scrapes\":" << meta.scrapes << ",\"series_count\":" << store.size()
    << ",\"points\":" << store.total_points()
    << ",\"dropped\":" << store.total_dropped() << ",\"series\":{";
  bool first = true;
  store.visit([&](const Series& series) {
    if (!first) w << ",";
    first = false;
    w << "\"" << JsonEscaped{series.key()} << "\":{\"kind\":\""
      << series_kind_name(series.kind()) << "\",\"points\":" << series.points()
      << ",\"dropped\":" << series.dropped()
      << ",\"sum\":" << Fixed{series.total_sum(), 6}
      << ",\"dropped_sum\":" << Fixed{series.dropped_sum(), 6}
      << ",\"samples\":[";
    bool first_sample = true;
    for (const Sample& sample : series.raw()) {
      if (!first_sample) w << ",";
      first_sample = false;
      w << "[" << sample.at << "," << Fixed{sample.value, 6} << "]";
    }
    w << "],\"rollups\":[";
    for (std::size_t tier = 0; tier < series.tiers().size(); ++tier) {
      if (tier > 0) w << ",";
      w << "{\"tier\":" << tier + 1 << ",\"rows\":[";
      bool first_row = true;
      for (const Rollup& rollup : series.tiers()[tier]) {
        if (!first_row) w << ",";
        first_row = false;
        w << "[";
        write_row(w, rollup);
        w << "]";
      }
      w << "]}";
    }
    w << "]}";
  });
  w << "}}";
}

void write_series_csv(std::ostream& os, const Tsdb& store,
                      const SeriesMeta& meta) {
  Writer w(os);
  w << "# ghs-series-v1 interval_ps=" << meta.interval
    << " scrapes=" << meta.scrapes << "\n";
  w << "series,kind,tier,begin_ps,end_ps,count,min,mean,max,last\n";
  store.visit([&](const Series& series) {
    // CSV field quoting: keys carry '{', '"' and ',' in label blocks.
    std::string quoted = "\"";
    for (char c : series.key()) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += "\",";
    quoted += series_kind_name(series.kind());
    quoted += ",";
    const auto row = [&](std::size_t tier, const Rollup& rollup) {
      w << quoted << tier << ",";
      write_row(w, rollup);
      w << "\n";
    };
    // Oldest data first: higher tiers hold older rollups.
    for (std::size_t t = series.tiers().size(); t-- > 0;) {
      for (const Rollup& rollup : series.tiers()[t]) row(t + 1, rollup);
    }
    for (const Sample& sample : series.raw()) {
      row(0, Rollup{sample.at, sample.at, 1, sample.value, sample.value,
                    sample.value, sample.value});
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
