#include "ghs/telemetry/exporters.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "ghs/util/strings.hpp"

namespace ghs::telemetry {

namespace {

// Bucket bounds print compact ("0.05", "20"), matching Prometheus's
// conventional le rendering.
std::string compact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// Splices an `le` label into an already-rendered label block.
std::string with_le(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return labels.substr(0, labels.size() - 1) + ",le=\"" + le + "\"}";
}

}  // namespace

void write_prometheus(std::ostream& os, const Registry& registry,
                      const ExportOptions& options) {
  std::string last_name;
  registry.visit([&](const Registry::View& view) {
    if (view.volatile_instrument && !options.include_volatile) return;
    if (view.name != last_name) {
      last_name = view.name;
      if (!view.help.empty()) {
        os << "# HELP " << view.name << " ";
        for (char c : view.help) {
          if (c == '\\') {
            os << "\\\\";
          } else if (c == '\n') {
            os << "\\n";
          } else {
            os << c;
          }
        }
        os << "\n";
      }
      os << "# TYPE " << view.name << " " << kind_name(view.kind) << "\n";
    }
    switch (view.kind) {
      case Kind::kCounter:
        os << view.name << view.labels << " " << view.counter->value()
           << "\n";
        break;
      case Kind::kGauge:
        os << view.name << view.labels << " "
           << format_fixed(view.gauge->value(), 6) << "\n";
        break;
      case Kind::kHistogram: {
        const auto& bounds = view.histogram->bounds();
        const auto cumulative = view.histogram->cumulative_counts();
        const bool exemplars = view.histogram->has_exemplars();
        const auto exemplar_suffix = [&](std::size_t index) {
          if (!exemplars) return std::string{};
          const Exemplar exemplar = view.histogram->exemplar(index);
          if (exemplar.trace_id == 0) return std::string{};
          return " # {trace_id=\"" + hex16(exemplar.trace_id) + "\"} " +
                 format_fixed(exemplar.value, 6);
        };
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          os << view.name << "_bucket"
             << with_le(view.labels, compact(bounds[i])) << " "
             << cumulative[i] << exemplar_suffix(i) << "\n";
        }
        os << view.name << "_bucket" << with_le(view.labels, "+Inf") << " "
           << cumulative.back() << exemplar_suffix(bounds.size()) << "\n";
        os << view.name << "_sum" << view.labels << " "
           << format_fixed(view.histogram->sum(), 6) << "\n";
        os << view.name << "_count" << view.labels << " "
           << view.histogram->count() << "\n";
        break;
      }
    }
  });
}

void write_json_snapshot(std::ostream& os, const Registry& registry,
                         const ExportOptions& options) {
  // Three sections, each keyed by "name{labels}". The registry visits in
  // sorted order, so every section's key order is stable.
  std::vector<const char*> sections = {"counters", "gauges", "histograms"};
  os << "{";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const Kind kind = s == 0   ? Kind::kCounter
                      : s == 1 ? Kind::kGauge
                               : Kind::kHistogram;
    if (s > 0) os << ",";
    os << "\"" << sections[s] << "\":{";
    bool first = true;
    registry.visit([&](const Registry::View& view) {
      if (view.kind != kind) return;
      if (view.volatile_instrument && !options.include_volatile) return;
      if (!first) os << ",";
      first = false;
      os << "\"";
      write_json_escaped(os, view.name + view.labels);
      os << "\":";
      switch (kind) {
        case Kind::kCounter:
          os << view.counter->value();
          break;
        case Kind::kGauge:
          os << format_fixed(view.gauge->value(), 6);
          break;
        case Kind::kHistogram: {
          const auto& bounds = view.histogram->bounds();
          const auto cumulative = view.histogram->cumulative_counts();
          os << "{\"count\":" << view.histogram->count()
             << ",\"sum\":" << format_fixed(view.histogram->sum(), 6)
             << ",\"buckets\":{";
          for (std::size_t i = 0; i < bounds.size(); ++i) {
            os << "\"" << compact(bounds[i]) << "\":" << cumulative[i]
               << ",";
          }
          os << "\"+Inf\":" << cumulative.back() << "}";
          // Exemplars are additive: an exemplar-free histogram keeps the
          // pre-exemplar snapshot bytes.
          if (view.histogram->has_exemplars()) {
            os << ",\"exemplars\":{";
            bool first_exemplar = true;
            for (std::size_t i = 0; i <= bounds.size(); ++i) {
              const Exemplar exemplar = view.histogram->exemplar(i);
              if (exemplar.trace_id == 0) continue;
              if (!first_exemplar) os << ",";
              first_exemplar = false;
              os << "\""
                 << (i < bounds.size() ? compact(bounds[i])
                                       : std::string("+Inf"))
                 << "\":{\"trace_id\":\"" << hex16(exemplar.trace_id)
                 << "\",\"value\":" << format_fixed(exemplar.value, 6)
                 << "}";
            }
            os << "}";
          }
          os << "}";
          break;
        }
      }
    });
    os << "}";
  }
  os << "}";
}

stats::Table to_table(const Registry& registry,
                      const ExportOptions& options) {
  stats::Table table({"instrument", "type", "value"});
  registry.visit([&](const Registry::View& view) {
    if (view.volatile_instrument && !options.include_volatile) return;
    std::string value;
    switch (view.kind) {
      case Kind::kCounter:
        value = std::to_string(view.counter->value());
        break;
      case Kind::kGauge:
        value = format_fixed(view.gauge->value(), 6);
        break;
      case Kind::kHistogram: {
        const auto* h = view.histogram;
        value = "count=" + std::to_string(h->count());
        if (h->count() > 0) {
          value += " mean=" +
                   format_fixed(h->sum() / static_cast<double>(h->count()), 6);
          value += " p50=" + format_fixed(h->quantile(0.50), 6);
          value += " p95=" + format_fixed(h->quantile(0.95), 6);
          value += " p99=" + format_fixed(h->quantile(0.99), 6);
          value += " p999=" + format_fixed(h->quantile(0.999), 6);
        }
        break;
      }
    }
    table.add_row({view.name + view.labels, kind_name(view.kind), value});
  });
  return table;
}

}  // namespace ghs::telemetry
