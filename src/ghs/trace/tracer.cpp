#include "ghs/trace/tracer.hpp"

#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::trace {

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

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  GHS_REQUIRE(capacity_ > 0, "tracer capacity must be positive");
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
  Span span{track, std::move(name), begin, end, std::move(detail), ctx};
  if (span_ring_.size() < capacity_) {
    span_ring_.push_back(std::move(span));
  } else {
    span_ring_[span_next_] = std::move(span);
    span_next_ = (span_next_ + 1) % capacity_;
    ++dropped_spans_;
  }
}

void Tracer::mark(Track track, std::string name, SimTime at, Context ctx) {
  GHS_REQUIRE(at >= 0, "instant '" << name << "' at " << at);
  if (!sampled(ctx.trace_id)) {
    ++dropped_by_sampler_;
    return;
  }
  Instant instant{track, std::move(name), at, ctx};
  if (instant_ring_.size() < capacity_) {
    instant_ring_.push_back(std::move(instant));
  } else {
    instant_ring_[instant_next_] = std::move(instant);
    instant_next_ = (instant_next_ + 1) % capacity_;
    ++dropped_instants_;
  }
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  out.reserve(span_ring_.size());
  for (std::size_t i = 0; i < span_ring_.size(); ++i) {
    out.push_back(span_ring_[(span_next_ + i) % span_ring_.size()]);
  }
  return out;
}

std::vector<Instant> Tracer::instants() const {
  std::vector<Instant> out;
  out.reserve(instant_ring_.size());
  for (std::size_t i = 0; i < instant_ring_.size(); ++i) {
    out.push_back(instant_ring_[(instant_next_ + i) % instant_ring_.size()]);
  }
  return out;
}

void Tracer::clear() {
  span_ring_.clear();
  instant_ring_.clear();
  span_next_ = 0;
  instant_next_ = 0;
  dropped_spans_ = 0;
  dropped_instants_ = 0;
}

}  // namespace ghs::trace
