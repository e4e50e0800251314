// Unified metrics substrate: a thread-safe Registry of named Counter,
// Gauge, and fixed-bucket Histogram instruments, shared by the simulator,
// the UM driver, the auto-tuner, and the serving layer.
//
// Instruments are identified by (name, sorted labels); asking twice for the
// same identity returns the same instrument, so independent layers (and
// independent Platforms) accumulate into one view. Like trace::Tracer, the
// registry is opt-in: layers hold a null pointer by default and cache raw
// instrument pointers when telemetry is enabled, so instrumented hot paths
// pay one branch plus one relaxed atomic.
//
// Naming convention (see docs/OBSERVABILITY.md): ghs_<layer>_<noun>_<unit>,
// with `_total` for counters, e.g. ghs_um_migrated_bytes_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ghs::telemetry {

/// Label set as key=value pairs; the registry sorts them by key, so
/// {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} name the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Renders sorted labels Prometheus-style: `{a="1",b="2"}`, "" when empty.
std::string label_suffix(const Labels& labels);

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* kind_name(Kind kind);

/// Monotone event count. Increments are exact under concurrency.
class Counter {
 public:
  void inc(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time value (queue depth, resident bytes). add() is atomic, so
/// concurrent +/- deltas never lose updates.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// One trace exemplar kept per histogram bucket: the most recent sample
/// that landed there, tagged with the trace it came from, so a fat p99
/// bucket names the exact trace to open. trace_id 0 = no exemplar yet.
struct Exemplar {
  std::uint64_t trace_id = 0;
  double value = 0.0;
};

/// Fixed-bucket distribution. `bounds` are strictly increasing inclusive
/// upper bounds; one implicit +Inf bucket catches the overflow. Prometheus
/// `le` semantics: a value lands in the first bucket whose bound >= value.
class Histogram {
 public:
  void observe(double value);

  /// observe() plus an exemplar: remembers (trace_id, value) for the bucket
  /// the sample lands in (last sample wins, which is deterministic in the
  /// single-threaded simulation). trace_id 0 degrades to plain observe().
  void observe_exemplar(double value, std::uint64_t trace_id);

  /// Exemplar for bucket `index` (bounds().size() = the +Inf bucket);
  /// trace_id 0 when the bucket has none.
  Exemplar exemplar(std::size_t index) const;
  /// Whether any bucket holds an exemplar; exporters key their (gated)
  /// exemplar output off this so exemplar-free output is byte-identical to
  /// pre-exemplar builds.
  bool has_exemplars() const {
    return has_exemplars_.load(std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; index bounds().size() is +Inf.
  std::int64_t bucket_count(std::size_t index) const;
  std::vector<std::int64_t> cumulative_counts() const;
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate from the bucket counts (linear interpolation inside
  /// the crossing bucket; see stats::histogram_quantile). Requires count>0.
  double quantile(double q) const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  /// observe() returning the bucket the value landed in.
  std::size_t observe_at_bucket(double value);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Exemplars ride the slow path only: the mutex is touched exclusively by
  // observe_exemplar()/exemplar(), never by plain observe().
  mutable std::mutex exemplar_mutex_;
  std::vector<Exemplar> exemplars_;  // sized bounds_.size()+1
  std::atomic<bool> has_exemplars_{false};
};

/// Default latency buckets in milliseconds (serve-layer histograms).
std::vector<double> default_latency_buckets_ms();

class FlightRecorder;

/// The opt-in pair every instrumented layer holds: null members disable the
/// corresponding channel. Copyable by value (two raw pointers).
struct Sink {
  class Registry* metrics = nullptr;
  FlightRecorder* flight = nullptr;
  /// Register the extra time-resolved instruments (per-device busy time)
  /// that the ghs::timeseries scraper consumes. Off by default so a
  /// snapshot-only run's instrument set — and its exported bytes — stay
  /// identical to timeline-free builds.
  bool timeline = false;

  explicit operator bool() const {
    return metrics != nullptr || flight != nullptr;
  }
};

class Registry {
 public:
  Registry();
  ~Registry();  // out of line: Instrument is incomplete here
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Instrument accessors: create on first use, return the existing
  /// instrument afterwards. `help` is kept from the first registration.
  /// Re-registering a name with a different kind (or a histogram with
  /// different bounds) is an error. `volatile_instrument` marks values that
  /// legitimately differ between same-seed runs (wall-clock time); the
  /// exporters skip them unless asked, keeping snapshots byte-identical.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = {},
               bool volatile_instrument = false);
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {},
                       const std::string& help = {});

  /// A layer's instruments, resolved once per registry. The first call
  /// constructs T from this registry (T's constructor registers and keeps
  /// what the layer writes to); later calls return the same T. Attaching
  /// a layer then costs one lookup by type, not one by name per
  /// instrument, however many times the layer is rebuilt (the pricing
  /// Platforms, one per memo miss, each attach their simulator, GPU and
  /// UM layers).
  template <class T>
  const T& handles();

  std::size_t size() const;

  /// One instrument as the exporters see it. Exactly one of the three
  /// pointers is non-null, matching `kind`.
  struct View {
    std::string name;          // metric name without labels
    std::string labels;        // rendered label_suffix(), "" when unlabelled
    std::string help;
    Kind kind = Kind::kCounter;
    bool volatile_instrument = false;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Visits every instrument in deterministic order (name, then labels),
  /// under the registry lock. Instruments are never removed, so the
  /// pointers stay valid for the registry's lifetime.
  void visit(const std::function<void(const View&)>& fn) const;

 private:
  struct Instrument;

  Instrument& get_or_create(const std::string& name, const Labels& labels,
                            const std::string& help, Kind kind,
                            bool volatile_instrument);

  /// One address per handle type, the key of handles_.
  template <class T>
  struct HandleTag {
    static constexpr char id = 0;
  };

  mutable std::mutex mutex_;
  // Sorted by name + label_suffix; the sort order is the export order,
  // which makes every exporter deterministic by construction.
  std::vector<std::pair<std::string, std::unique_ptr<Instrument>>> items_;
  std::vector<std::pair<const void*, std::shared_ptr<const void>>> handles_;
};

template <class T>
const T& Registry::handles() {
  const void* const tag = &HandleTag<T>::id;
  const auto find = [&]() -> const T* {
    for (const auto& [key, value] : handles_) {
      if (key == tag) return static_cast<const T*>(value.get());
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const T* found = find()) return *found;
  }
  // Built outside the lock: T's constructor registers instruments.
  auto made = std::make_shared<const T>(*this);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const T* found = find()) return *found;
  handles_.emplace_back(tag, made);
  return *made;
}

}  // namespace ghs::telemetry
