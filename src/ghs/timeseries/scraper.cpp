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
  sync_cursors();
  for (Cursor& cursor : cursors_) {
    if (cursor.view.counter != nullptr) {
      cursor.count = cursor.view.counter->value();
    } else if (const auto* hist = cursor.view.histogram) {
      cursor.cumulative = hist->cumulative_counts();
      cursor.count = hist->count();
      cursor.sum = hist->sum();
    }
  }
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

void Scraper::sample() {
  sync_cursors();
  const SimTime at = sim_.now();
  for (Cursor& cursor : cursors_) emit(cursor, at);
}

void Scraper::sync_cursors() {
  const std::size_t size = registry_.size();
  if (size == synced_size_) return;
  synced_size_ = size;
  std::vector<Cursor> cursors;
  cursors.reserve(size);
  std::size_t old = 0;
  registry_.visit([&](const telemetry::Registry::View& view) {
    if (view.volatile_instrument) return;
    std::string key = view.name + view.labels;
    if (old < cursors_.size() && cursors_[old].key == key) {
      cursors.push_back(std::move(cursors_[old++]));
      return;
    }
    Cursor& cursor = cursors.emplace_back();
    cursor.key = std::move(key);
    cursor.view = view;
    if (view.histogram != nullptr) {
      cursor.cumulative.assign(view.histogram->bounds().size() + 1, 0);
    }
  });
  cursors_ = std::move(cursors);
}

void Scraper::emit(Cursor& cursor, SimTime at) {
  const auto series = [&](Series*& slot, const char* suffix,
                          SeriesKind kind) -> Series& {
    if (slot == nullptr) slot = &store_.series(cursor.key + suffix, kind);
    return *slot;
  };
  switch (cursor.view.kind) {
    case telemetry::Kind::kCounter: {
      const std::int64_t total = cursor.view.counter->value();
      series(cursor.series, "", SeriesKind::kCounterDelta)
          .append(at, static_cast<double>(total - cursor.count));
      cursor.count = total;
      break;
    }
    case telemetry::Kind::kGauge:
      series(cursor.series, "", SeriesKind::kGauge)
          .append(at, cursor.view.gauge->value());
      break;
    case telemetry::Kind::kHistogram: {
      const auto& hist = *cursor.view.histogram;
      // The bucket deltas since the last scrape form a windowed histogram
      // whose quantiles stats::histogram_quantile interpolates exactly like
      // the end-of-run exporters do.
      window_.resize(cursor.cumulative.size());
      std::int64_t running = 0;
      for (std::size_t i = 0; i < window_.size(); ++i) {
        running += hist.bucket_count(i);
        window_[i] = running - cursor.cumulative[i];
        cursor.cumulative[i] = running;
      }
      const std::int64_t count = hist.count();
      const double sum = hist.sum();
      const std::int64_t count_delta = count - cursor.count;
      series(cursor.series, ":count", SeriesKind::kCounterDelta)
          .append(at, static_cast<double>(count_delta));
      series(cursor.sum_series, ":sum", SeriesKind::kCounterDelta)
          .append(at, sum - cursor.sum);
      if (count_delta > 0) {
        // Quantiles of THIS interval's observations only.
        for (std::size_t i = 0; i < std::size(kWindowQuantiles); ++i) {
          const auto& [q, suffix] = kWindowQuantiles[i];
          series(cursor.quantiles[i], suffix, SeriesKind::kQuantile)
              .append(at,
                      stats::histogram_quantile(hist.bounds(), window_, q));
        }
      }
      cursor.count = count;
      cursor.sum = sum;
      break;
    }
  }
}

}  // namespace ghs::timeseries
