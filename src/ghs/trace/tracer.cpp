#include "ghs/trace/tracer.hpp"

#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::trace {

namespace {

template <class T>
std::vector<T> oldest_first(const BoundedRing<T>& ring) {
  std::vector<T> out;
  out.reserve(ring.size());
  ring.for_each([&out](const T& entry) { out.push_back(entry); });
  return out;
}

}  // namespace

std::uint64_t derive_trace_id(std::int64_t key) {
  std::uint64_t state = static_cast<std::uint64_t>(key) + 1;
  const std::uint64_t id = splitmix64(state);
  return id == 0 ? 1 : id;
}

const char* track_name(Track track) {
  switch (track) {
    case Track::kGpu:
      return "GPU kernels";
    case Track::kGpuWaves:
      return "GPU waves";
    case Track::kCpu:
      return "CPU reduction";
    case Track::kUmMigration:
      return "UM migration";
    case Track::kRuntime:
      return "OpenMP runtime";
    case Track::kServer:
      return "Reduction service";
    case Track::kJobs:
      return "Job spans";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : spans_(capacity), instants_(capacity) {
  GHS_REQUIRE(capacity > 0, "tracer capacity must be positive");
}

void Tracer::set_sampler(SamplerOptions options) {
  GHS_REQUIRE(options.rate >= 0.0, "sample rate " << options.rate);
  if (options.rate > 1.0) options.rate = 1.0;
  sampler_ = options;
  // Map the rate onto the uint64 range; a trace survives when the hash of
  // its id lands below the threshold.
  keep_threshold_ = static_cast<std::uint64_t>(
      options.rate * 18446744073709551615.0);  // 2^64 - 1
}

bool Tracer::decide(std::uint64_t trace_id) const {
  if (sampler_.rate <= 0.0) return false;
  std::uint64_t state = sampler_.seed ^ trace_id;
  return splitmix64(state) <= keep_threshold_;
}

void Tracer::record(Track track, std::string name, SimTime begin, SimTime end,
                    std::string detail, Context ctx) {
  GHS_REQUIRE(begin >= 0 && end >= begin,
              "span '" << name << "' has begin=" << begin << " end=" << end);
  if (!sampled(ctx.trace_id)) {
    ++dropped_by_sampler_;
    return;
  }
  spans_.append() =
      Span{track, std::move(name), begin, end, std::move(detail), ctx};
}

void Tracer::mark(Track track, std::string name, SimTime at, Context ctx) {
  GHS_REQUIRE(at >= 0, "instant '" << name << "' at " << at);
  if (!sampled(ctx.trace_id)) {
    ++dropped_by_sampler_;
    return;
  }
  instants_.append() = Instant{track, std::move(name), at, ctx};
}

std::vector<Span> Tracer::spans() const { return oldest_first(spans_); }

std::vector<Instant> Tracer::instants() const {
  return oldest_first(instants_);
}

void Tracer::clear() {
  spans_.clear();
  instants_.clear();
}

}  // namespace ghs::trace
