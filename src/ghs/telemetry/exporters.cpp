#include "ghs/telemetry/exporters.hpp"

#include <string>

#include "ghs/util/strings.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::telemetry {

void write_prometheus(std::ostream& os, const Registry& registry,
                      const ExportOptions& options) {
  Writer w(os);
  std::string last_name;
  registry.visit([&](const Registry::View& view) {
    if (view.volatile_instrument && !options.include_volatile) return;
    if (view.name != last_name) {
      last_name = view.name;
      if (!view.help.empty()) {
        w << "# HELP " << view.name << " ";
        for (char c : view.help) {
          if (c == '\\') {
            w << "\\\\";
          } else if (c == '\n') {
            w << "\\n";
          } else {
            w << c;
          }
        }
        w << "\n";
      }
      w << "# TYPE " << view.name << " " << kind_name(view.kind) << "\n";
    }
    switch (view.kind) {
      case Kind::kCounter:
        w << view.name << view.labels << " " << view.counter->value()
          << "\n";
        break;
      case Kind::kGauge:
        w << view.name << view.labels << " " << Fixed{view.gauge->value(), 6}
          << "\n";
        break;
      case Kind::kHistogram: {
        const auto& bounds = view.histogram->bounds();
        const auto cumulative = view.histogram->cumulative_counts();
        const bool exemplars = view.histogram->has_exemplars();
        // The `le` label spliced into the rendered label block.
        const std::string le_open =
            view.labels.empty()
                ? "{le=\""
                : view.labels.substr(0, view.labels.size() - 1) + ",le=\"";
        const auto bucket = [&](std::size_t index, const auto& le) {
          w << view.name << "_bucket" << le_open << le << "\"} "
            << cumulative[index];
          if (exemplars) {
            const Exemplar exemplar = view.histogram->exemplar(index);
            if (exemplar.trace_id != 0) {
              w << " # {trace_id=\"" << Hex16{exemplar.trace_id} << "\"} "
                << Fixed{exemplar.value, 6};
            }
          }
          w << "\n";
        };
        // Bounds print as "%g" ("0.05", "20"), Prometheus's conventional
        // le rendering.
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          bucket(i, General{bounds[i]});
        }
        bucket(bounds.size(), "+Inf");
        w << view.name << "_sum" << view.labels << " "
          << Fixed{view.histogram->sum(), 6} << "\n";
        w << view.name << "_count" << view.labels << " "
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
  Writer w(os);
  const char* const sections[] = {"counters", "gauges", "histograms"};
  const Kind kinds[] = {Kind::kCounter, Kind::kGauge, Kind::kHistogram};
  w << "{";
  for (std::size_t s = 0; s < 3; ++s) {
    const Kind kind = kinds[s];
    if (s > 0) w << ",";
    w << "\"" << sections[s] << "\":{";
    bool first = true;
    registry.visit([&](const Registry::View& view) {
      if (view.kind != kind) return;
      if (view.volatile_instrument && !options.include_volatile) return;
      if (!first) w << ",";
      first = false;
      w << "\"" << JsonEscaped{view.name} << JsonEscaped{view.labels}
        << "\":";
      switch (kind) {
        case Kind::kCounter:
          w << view.counter->value();
          break;
        case Kind::kGauge:
          w << Fixed{view.gauge->value(), 6};
          break;
        case Kind::kHistogram: {
          const auto& bounds = view.histogram->bounds();
          const auto cumulative = view.histogram->cumulative_counts();
          w << "{\"count\":" << view.histogram->count()
            << ",\"sum\":" << Fixed{view.histogram->sum(), 6}
            << ",\"buckets\":{";
          for (std::size_t i = 0; i < bounds.size(); ++i) {
            w << "\"" << General{bounds[i]} << "\":" << cumulative[i] << ",";
          }
          w << "\"+Inf\":" << cumulative.back() << "}";
          // Exemplars are additive: an exemplar-free histogram keeps the
          // pre-exemplar snapshot bytes.
          if (view.histogram->has_exemplars()) {
            w << ",\"exemplars\":{";
            bool first_exemplar = true;
            for (std::size_t i = 0; i <= bounds.size(); ++i) {
              const Exemplar exemplar = view.histogram->exemplar(i);
              if (exemplar.trace_id == 0) continue;
              if (!first_exemplar) w << ",";
              first_exemplar = false;
              w << "\"";
              if (i < bounds.size()) {
                w << General{bounds[i]};
              } else {
                w << "+Inf";
              }
              w << "\":{\"trace_id\":\"" << Hex16{exemplar.trace_id}
                << "\",\"value\":" << Fixed{exemplar.value, 6} << "}";
            }
            w << "}";
          }
          w << "}";
          break;
        }
      }
    });
    w << "}";
  }
  w << "}";
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
