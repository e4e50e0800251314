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

Platform::Platform(const SystemConfig& config) : config_(config) {
  topology_ = std::make_unique<mem::Topology>(sim_, config_.topology);
  transfers_ = std::make_unique<mem::TransferEngine>(*topology_);
  um_ = std::make_unique<um::UmManager>(*topology_, *transfers_, config_.um);
  gpu_ = std::make_unique<gpu::GpuDevice>(sim_, *topology_, *um_,
                                          config_.gpu);
  cpu_ = std::make_unique<cpu::CpuDevice>(sim_, *topology_, *um_,
                                          config_.cpu);
  runtime_ = std::make_unique<omp::Runtime>(sim_, *transfers_, *um_, *gpu_,
                                            *cpu_, config_.omp);
}

void Platform::set_telemetry(telemetry::Sink sink) {
  telemetry_ = sink;
  sim_.set_telemetry(sink.metrics);
  gpu_->set_telemetry(sink);
  um_->set_telemetry(sink);
}

trace::Tracer& Platform::enable_tracing() {
  if (!tracer_) {
    tracer_ = std::make_unique<trace::Tracer>();
    gpu_->set_tracer(tracer_.get());
    cpu_->set_tracer(tracer_.get());
    um_->set_tracer(tracer_.get());
    runtime_->set_tracer(tracer_.get());
  }
  return *tracer_;
}

Platform::Mark Platform::mark() const {
  Mark m{{},
         sim_.mark(),
         topology_->network().mark(),
         um_->stats(),
         gpu_->stats(),
         gpu_->combine_unit()};
  um_->digest(m.digest);
  gpu_->digest(m.digest);
  return m;
}

void Platform::repeat(std::int64_t count,
                      const std::function<void()>& repetition) {
  GHS_REQUIRE(count > 0, "repetitions=" << count);
  const bool may_skip = tracer_ == nullptr && telemetry_.flight == nullptr;
  std::optional<Mark> before;
  if (may_skip) before = mark();
  for (std::int64_t done = 1; done <= count; ++done) {
    repetition();
    ++simulated_;
    if (!may_skip || done == count) continue;
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
  topology_->network().fast_forward(since.fluid, k);
  um_->fast_forward(since.um, k);
  gpu_->fast_forward(since.gpu, since.combine, dt, k);
  skipped_ += k;
}

}  // namespace ghs::core
