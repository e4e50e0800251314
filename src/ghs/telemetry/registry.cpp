#include "ghs/telemetry/registry.hpp"

#include <algorithm>

#include "ghs/stats/summary.hpp"
#include "ghs/util/error.hpp"

namespace ghs::telemetry {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return !(name[0] >= '0' && name[0] <= '9');
}

Labels sorted_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    GHS_REQUIRE(sorted[i - 1].first != sorted[i].first,
                "duplicate label key '" << sorted[i].first << "'");
  }
  return sorted;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string label_suffix(const Labels& labels) {
  if (labels.empty()) return {};
  const Labels sorted = sorted_labels(labels);
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    GHS_REQUIRE(valid_name(sorted[i].first),
                "bad label key '" << sorted[i].first << "'");
    if (i > 0) out += ",";
    out += sorted[i].first;
    out += "=\"";
    for (char c : sorted[i].second) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::int64_t>[bounds_.size() + 1]),
      exemplars_(bounds_.size() + 1) {
  GHS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "histogram bounds must be strictly increasing");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::observe_at_bucket(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
  return index;
}

void Histogram::observe(double value) { observe_at_bucket(value); }

void Histogram::observe_exemplar(double value, std::uint64_t trace_id) {
  const std::size_t index = observe_at_bucket(value);
  if (trace_id == 0) return;
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    exemplars_[index] = Exemplar{trace_id, value};
  }
  has_exemplars_.store(true, std::memory_order_relaxed);
}

Exemplar Histogram::exemplar(std::size_t index) const {
  GHS_REQUIRE(index <= bounds_.size(), "exemplar index " << index);
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  return exemplars_[index];
}

std::int64_t Histogram::bucket_count(std::size_t index) const {
  GHS_REQUIRE(index <= bounds_.size(), "bucket index " << index);
  return buckets_[index].load(std::memory_order_relaxed);
}

std::vector<std::int64_t> Histogram::cumulative_counts() const {
  std::vector<std::int64_t> cumulative(bounds_.size() + 1, 0);
  std::int64_t running = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    cumulative[i] = running;
  }
  return cumulative;
}

double Histogram::quantile(double q) const {
  return stats::histogram_quantile(bounds_, cumulative_counts(), q);
}

std::vector<double> default_latency_buckets_ms() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
          2.0,  5.0,  10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};
}

struct Registry::Instrument {
  std::string name;
  std::string labels;
  std::string help;
  Kind kind;
  bool volatile_instrument = false;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Instrument& Registry::get_or_create(const std::string& name,
                                              const Labels& labels,
                                              const std::string& help,
                                              Kind kind,
                                              bool volatile_instrument) {
  GHS_REQUIRE(valid_name(name), "bad metric name '" << name << "'");
  const std::string key = name + label_suffix(labels);
  // Sorted vector keyed by name+labels: lookup is log(n) and iteration
  // order (the export order) is deterministic by construction.
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), key,
      [](const auto& item, const std::string& k) { return item.first < k; });
  if (it != items_.end() && it->first == key) {
    GHS_REQUIRE(it->second->kind == kind,
                "instrument '" << key << "' already registered as "
                               << kind_name(it->second->kind));
    return *it->second;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->name = name;
  instrument->labels = label_suffix(labels);
  instrument->help = help;
  instrument->kind = kind;
  instrument->volatile_instrument = volatile_instrument;
  return *items_.insert(it, {key, std::move(instrument)})->second;
}

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& instrument =
      get_or_create(name, labels, help, Kind::kCounter, false);
  if (!instrument.counter) {
    instrument.counter = std::unique_ptr<Counter>(new Counter());
  }
  return *instrument.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help, bool volatile_instrument) {
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& instrument =
      get_or_create(name, labels, help, Kind::kGauge, volatile_instrument);
  if (!instrument.gauge) {
    instrument.gauge = std::unique_ptr<Gauge>(new Gauge());
  }
  return *instrument.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const Labels& labels,
                               const std::string& help) {
  GHS_REQUIRE(!bounds.empty(), "histogram '" << name << "' without buckets");
  std::lock_guard<std::mutex> lock(mutex_);
  Instrument& instrument =
      get_or_create(name, labels, help, Kind::kHistogram, false);
  if (!instrument.histogram) {
    instrument.histogram =
        std::unique_ptr<Histogram>(new Histogram(std::move(bounds)));
  } else {
    GHS_REQUIRE(instrument.histogram->bounds() == bounds,
                "histogram '" << name << "' re-registered with different "
                              << "buckets");
  }
  return *instrument.histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

void Registry::visit(const std::function<void(const View&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, instrument] : items_) {
    View view;
    view.name = instrument->name;
    view.labels = instrument->labels;
    view.help = instrument->help;
    view.kind = instrument->kind;
    view.volatile_instrument = instrument->volatile_instrument;
    view.counter = instrument->counter.get();
    view.gauge = instrument->gauge.get();
    view.histogram = instrument->histogram.get();
    fn(view);
  }
}

}  // namespace ghs::telemetry
