// Execution tracing: devices and the UM driver record spans (kernels,
// waves, CPU reductions, migrations, co-execution regions) against
// simulated time; ChromeTraceExporter writes them as Chrome trace-event
// JSON (chrome://tracing / Perfetto) so a run's timeline can be inspected
// visually — the closest simulator analogue of an Nsight Systems capture.
//
// Tracing is opt-in: devices hold a Tracer pointer that is null by default,
// and every record call no-ops when disabled, so the hot simulation paths
// pay one branch.
//
// Spans may carry a trace::Context (trace/span/parent ids); the serving
// layer threads one context tree through each job's admission, queue wait,
// retries, and device execution, so a request renders as one causally
// linked tree (see chrome_exporter.hpp). Retention is bounded the same way
// as telemetry::FlightRecorder: the tracer keeps the most recent `capacity`
// spans (and instants), dropping the oldest and counting the drops, so
// long chaos runs cannot grow memory without limit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ghs/trace/context.hpp"
#include "ghs/util/units.hpp"

namespace ghs::trace {

/// Track (Chrome "thread") a span is drawn on.
enum class Track : std::uint8_t {
  kGpu = 0,
  kGpuWaves = 1,
  kCpu = 2,
  kUmMigration = 3,
  kRuntime = 4,
  /// Request-serving layer (ghs::serve): per-launch spans and admission
  /// markers of the multi-tenant scheduler.
  kServer = 5,
  /// Per-job causal span trees (serve.job / serve.queue / serve.execute
  /// and their device children), one trace per served request.
  kJobs = 6,
};

inline constexpr Track kLastTrack = Track::kJobs;

const char* track_name(Track track);

struct Span {
  Track track;
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;
  /// Optional free-form detail rendered into the event's args.
  std::string detail;
  /// Optional causal identity; default (all zeros) = context-free span.
  Context ctx;
};

struct Instant {
  Track track;
  std::string name;
  SimTime at = 0;
  Context ctx;
};

/// Deterministic head sampling: whether a trace is kept is a pure
/// function of (seed, trace_id), so every span of one request keeps or
/// drops as a unit, and two same-seed runs sample identically. rate >= 1
/// disables the sampler entirely — output is then byte-identical to a
/// tracer that never had one (the byte-identity tests rely on this).
struct SamplerOptions {
  /// Fraction of traces kept, in [0, 1]; 1.0 (default) keeps everything.
  double rate = 1.0;
  std::uint64_t seed = 0;
};

class Tracer {
 public:
  /// Spans and instants each keep at most `capacity` entries, oldest
  /// dropped first. The default is large enough that every workload in the
  /// repository retains everything; chaos soak runs rely on the bound.
  static constexpr std::size_t kDefaultCapacity = 1 << 20;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Installs (or, with rate >= 1, removes) the head sampler.
  void set_sampler(SamplerOptions options);

  bool sampler_active() const { return sampler_.rate < 1.0; }
  double sample_rate() const { return sampler_.rate; }
  std::uint64_t sampler_seed() const { return sampler_.seed; }

  /// True when the trace survives sampling. trace_id 0 (context-free
  /// spans) is always kept: the sampler applies to request trees only.
  bool sampled(std::uint64_t trace_id) const {
    if (!sampler_active() || trace_id == 0) return true;
    return decide(trace_id);
  }

  /// Pre-check for emit sites: skip building span names/details entirely
  /// for traces the sampler will drop — this is what makes tracing at 10^6
  /// jobs O(sampled) instead of O(jobs). A dropped trace counts the
  /// `entries` spans and instants the site skips, exactly as record() and
  /// mark() count the ones they reject.
  bool keep(const Context& ctx, std::int64_t entries = 1) {
    if (sampled(ctx.trace_id)) return true;
    dropped_by_sampler_ += entries;
    return false;
  }

  /// Spans and instants dropped because their request's trace was sampled
  /// out: those an emit site skipped through keep() — including
  /// context-free ones it skipped with them, such as a launch span or a
  /// reject marker — and those record()/mark() rejected.
  std::int64_t dropped_by_sampler() const { return dropped_by_sampler_; }

  /// Records a completed span; begin <= end required.
  void record(Track track, std::string name, SimTime begin, SimTime end,
              std::string detail = {}, Context ctx = {});

  /// Records a zero-duration marker.
  void mark(Track track, std::string name, SimTime at, Context ctx = {});

  /// Hands out the next span id (1, 2, 3, ...). Ids are deterministic for
  /// a deterministic record sequence, which keeps trace files byte-stable
  /// across same-seed runs.
  std::uint64_t new_span_id() { return ++last_span_id_; }

  /// Retained entries, oldest first (a snapshot: the tracer is a bounded
  /// ring, so older entries may already have been dropped).
  std::vector<Span> spans() const;
  std::vector<Instant> instants() const;
  std::size_t size() const { return span_ring_.size() + instant_ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries lost to the ring bound, spans + instants.
  std::int64_t dropped_total() const { return dropped_spans_ + dropped_instants_; }
  void clear();

 private:
  bool decide(std::uint64_t trace_id) const;

  const std::size_t capacity_;
  std::vector<Span> span_ring_;       // grows to capacity_, then wraps
  std::vector<Instant> instant_ring_;
  std::size_t span_next_ = 0;         // oldest entry once wrapped
  std::size_t instant_next_ = 0;
  std::int64_t dropped_spans_ = 0;
  std::int64_t dropped_instants_ = 0;
  std::uint64_t last_span_id_ = 0;
  SamplerOptions sampler_;
  std::uint64_t keep_threshold_ = 0;  // derived from sampler_.rate
  std::int64_t dropped_by_sampler_ = 0;
};

/// Helper for the devices: records only when the tracer is non-null.
inline void record_span(Tracer* tracer, Track track, const std::string& name,
                        SimTime begin, SimTime end,
                        const std::string& detail = {}) {
  if (tracer != nullptr) {
    tracer->record(track, name, begin, end, detail);
  }
}

}  // namespace ghs::trace
