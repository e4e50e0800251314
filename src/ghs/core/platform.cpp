#include "ghs/core/platform.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::core {

struct Platform::Mark {
  std::vector<std::int64_t> digest;
  sim::Simulator::Mark sim;
  sim::FluidNetwork::Mark fluid;
  um::UmStats um;
  gpu::GpuDeviceStats gpu;
  sim::SerialServer combine;
};

Platform::Platform(const SystemConfig& config, telemetry::Sink sink,
                   trace::Tracer* tracer)
    : config_(config),
      records_every_repetition_(tracer != nullptr || sink.flight != nullptr),
      sim_(sink.metrics),
      topology_(sim_, config_.topology),
      um_(topology_, config_.um, sink, tracer),
      gpu_(sim_, topology_, um_, config_.gpu, sink, tracer),
      cpu_(sim_, topology_, um_, config_.cpu, tracer),
      runtime_(sim_, topology_, um_, gpu_, cpu_, config_.omp, tracer) {}

Platform::Mark Platform::mark() const {
  Mark m{{},
         sim_.mark(),
         topology_.network().mark(),
         um_.stats(),
         gpu_.stats(),
         gpu_.combine_unit()};
  um_.digest(m.digest);
  gpu_.digest(m.digest);
  return m;
}

void Platform::repeat(std::int64_t count,
                      const std::function<void()>& repetition) {
  GHS_REQUIRE(count > 0, "repetitions=" << count);
  std::optional<Mark> before;
  if (!records_every_repetition_) before = mark();
  for (std::int64_t done = 1; done <= count; ++done) {
    repetition();
    ++simulated_;
    if (records_every_repetition_ || done == count) continue;
    Mark after = mark();
    if (after.digest == before->digest) {
      skip(*before, count - done);
      return;
    }
    before = std::move(after);
  }
}

void Platform::skip(const Mark& since, std::int64_t k) {
  const SimTime dt = sim_.now() - since.sim.now;
  sim_.fast_forward(since.sim, k);
  topology_.network().fast_forward(since.fluid, k);
  um_.fast_forward(since.um, k);
  gpu_.fast_forward(since.gpu, since.combine, dt, k);
  skipped_ += k;
}

}  // namespace ghs::core
