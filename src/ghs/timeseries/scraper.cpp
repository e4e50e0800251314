#include "ghs/timeseries/scraper.hpp"

#include "ghs/stats/summary.hpp"
#include "ghs/util/error.hpp"

namespace ghs::timeseries {

namespace {

/// Windowed histogram quantiles and the series-key suffix of each.
struct WindowQuantile {
  double q;
  const char* suffix;
};
constexpr WindowQuantile kWindowQuantiles[] = {
    {0.5, ":p50"}, {0.95, ":p95"}, {0.99, ":p99"}};

}  // namespace

Scraper::Scraper(sim::Simulator& sim, const telemetry::Registry& registry,
                 Tsdb& store, ScraperOptions options)
    : sim_(sim), registry_(registry), store_(store), options_(options) {
  GHS_REQUIRE(options_.interval > 0, "scrape interval must be positive");
}

void Scraper::start() {
  GHS_REQUIRE(!started_, "scraper started twice");
  started_ = true;
  // Cursor baseline without emission: instruments that already carry
  // totals from a previous run on the same registry contribute only their
  // future increments.
  visit_registry(/*emit=*/false);
  sim_.schedule_after(options_.interval, [this] { on_tick(); });
}

void Scraper::on_tick() {
  sample();
  ++scrapes_;
  // An empty queue here means the workload drained inside this interval;
  // this tick took the trailing sample and the chain ends, so run()
  // terminates. Same-timestamp events dispatched after this one are
  // covered by finish().
  if (!sim_.idle()) {
    sim_.schedule_after(options_.interval, [this] { on_tick(); });
  }
}

void Scraper::finish() {
  if (!started_) return;
  // Unconditional: drain_batch() counts a whole batch before running it,
  // so "no events since the last tick" cannot distinguish a clean stop
  // from same-timestamp handlers dispatched after the scrape. One extra
  // sample is deterministic either way.
  sample();
}

void Scraper::sample() { visit_registry(/*emit=*/true); }

void Scraper::visit_registry(bool emit) {
  const SimTime at = sim_.now();
  registry_.visit([&](const telemetry::Registry::View& view) {
    if (view.volatile_instrument) return;
    const std::string key = view.name + view.labels;
    switch (view.kind) {
      case telemetry::Kind::kCounter: {
        const std::int64_t total = view.counter->value();
        auto [it, inserted] = counter_cursor_.try_emplace(key, 0);
        const std::int64_t delta = total - it->second;
        it->second = total;
        if (emit) {
          store_.series(key, SeriesKind::kCounterDelta)
              .append(at, static_cast<double>(delta));
        }
        break;
      }
      case telemetry::Kind::kGauge: {
        if (emit) {
          store_.series(key, SeriesKind::kGauge)
              .append(at, view.gauge->value());
        }
        break;
      }
      case telemetry::Kind::kHistogram: {
        const auto& hist = *view.histogram;
        std::vector<std::int64_t> cumulative = hist.cumulative_counts();
        const std::int64_t count = hist.count();
        const double sum = hist.sum();
        auto& cursor = hist_cursor_[key];
        if (cursor.cumulative.size() != cumulative.size()) {
          cursor.cumulative.assign(cumulative.size(), 0);
        }
        const std::int64_t count_delta = count - cursor.count;
        if (emit) {
          store_.series(key + ":count", SeriesKind::kCounterDelta)
              .append(at, static_cast<double>(count_delta));
          store_.series(key + ":sum", SeriesKind::kCounterDelta)
              .append(at, sum - cursor.sum);
          if (count_delta > 0) {
            // Quantiles of THIS interval's observations: the bucket deltas
            // form a windowed histogram that stats::histogram_quantile
            // interpolates exactly like the end-of-run exporters do.
            std::vector<std::int64_t> delta(cumulative.size());
            for (std::size_t i = 0; i < cumulative.size(); ++i) {
              delta[i] = cumulative[i] - cursor.cumulative[i];
            }
            for (const auto& [q, suffix] : kWindowQuantiles) {
              store_.series(key + suffix, SeriesKind::kQuantile)
                  .append(at,
                          stats::histogram_quantile(hist.bounds(), delta, q));
            }
          }
        }
        cursor.cumulative = std::move(cumulative);
        cursor.count = count;
        cursor.sum = sum;
        break;
      }
    }
  });
}

}  // namespace ghs::timeseries
