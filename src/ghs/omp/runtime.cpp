#include "ghs/omp/runtime.hpp"

#include <memory>
#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::omp {

Runtime::Runtime(sim::Simulator& sim, mem::Topology& topology,
                 um::UmManager& um, gpu::GpuDevice& gpu, cpu::CpuDevice& cpu,
                 RuntimeOptions options, trace::Tracer* tracer)
    : tracer_(tracer),
      sim_(sim),
      topology_(topology),
      um_(um),
      gpu_(gpu),
      cpu_(cpu),
      options_(options) {}

DeviceBufferId Runtime::target_alloc(Bytes size, std::string label) {
  GHS_REQUIRE(size > 0, "device buffer '" << label << "' has size " << size);
  buffers_.push_back(DeviceBuffer{size});
  return static_cast<DeviceBufferId>(buffers_.size() - 1);
}

void Runtime::map_to(DeviceBufferId buffer,
                     std::function<void()> on_complete) {
  GHS_REQUIRE(buffer < buffers_.size(), "device buffer id " << buffer);
  topology_.copy(buffers_[buffer].size, mem::RegionId::kLpddr,
                 mem::RegionId::kHbm, std::move(on_complete));
}

void Runtime::target_update_scalar(std::function<void()> on_complete) {
  sim_.schedule_after(options_.scalar_update_latency,
                      [on_complete = std::move(on_complete)] {
                        if (on_complete) on_complete();
                      });
}

std::int64_t Runtime::default_grid(std::int64_t iterations) const {
  return heuristic_grid(options_.heuristic, iterations);
}

gpu::KernelDesc Runtime::lower(const OffloadLoop& loop,
                               const TeamsClauses& clauses) const {
  GHS_REQUIRE(loop.iterations > 0, "loop '" << loop.label
                                            << "' has no iterations");
  GHS_REQUIRE(loop.v >= 1, "loop '" << loop.label << "' has v=" << loop.v);
  gpu::KernelDesc desc;
  desc.label = loop.label;
  // Grid geometry: the num_teams/thread_limit clauses, else the NVHPC
  // heuristic.
  if (clauses.num_teams) {
    GHS_REQUIRE(*clauses.num_teams > 0, "num_teams=" << *clauses.num_teams);
    desc.grid = std::min(*clauses.num_teams, loop.iterations);
  } else {
    desc.grid = heuristic_grid(options_.heuristic, loop.iterations);
  }
  desc.threads_per_cta =
      clauses.thread_limit.value_or(options_.heuristic.default_threads);
  GHS_REQUIRE(desc.threads_per_cta > 0 && desc.threads_per_cta % 32 == 0,
              "thread_limit=" << desc.threads_per_cta);
  desc.elements = loop.elements();
  desc.element_size = loop.element_size;
  desc.v = loop.v;
  desc.combine = loop.combine;
  desc.strategy = loop.strategy;
  GHS_REQUIRE(loop.input_streams >= 1, "input_streams=" << loop.input_streams);
  GHS_REQUIRE(loop.input_streams == 1 || !loop.unified,
              "multi-stream loops are modelled in explicit-map mode only");
  desc.input_streams = loop.input_streams;
  desc.input = loop.unified ? gpu::InputLocation::kManaged
                            : gpu::InputLocation::kDeviceBuffer;
  desc.managed_alloc = loop.managed_alloc;
  desc.range_offset = loop.range_offset;
  return desc;
}

void Runtime::target_teams_reduce(
    const OffloadLoop& loop, const TeamsClauses& clauses,
    std::function<void(const gpu::KernelResult&)> on_complete) {
  gpu_.launch(lower(loop, clauses), std::move(on_complete));
}

void Runtime::parallel_co_execute(
    const std::optional<OffloadLoop>& gpu_loop,
    const TeamsClauses& gpu_clauses,
    const std::optional<cpu::CpuReduceRequest>& cpu_part,
    std::function<void(const CoExecResult&)> on_complete) {
  GHS_REQUIRE(gpu_loop.has_value() || cpu_part.has_value(),
              "co-execution with neither a GPU nor a CPU part");

  auto result = std::make_shared<CoExecResult>();
  result->start = sim_.now();
  auto pending = std::make_shared<int>((gpu_loop ? 1 : 0) +
                                       (cpu_part ? 1 : 0));
  const SimTime fork = cpu_.config().parallel_region_overhead / 2;
  const SimTime join = cpu_.config().parallel_region_overhead / 2;

  auto one_done = [this, result, pending, join,
                   on_complete = std::move(on_complete)] {
    GHS_CHECK(*pending > 0, "co-execution completion underflow");
    if (--*pending > 0) return;
    // Implicit barrier at the end of the parallel region.
    sim_.schedule_after(join, [this, result, on_complete] {
      result->end = sim_.now();
      trace::record_span(tracer_, trace::Track::kRuntime,
                         "omp parallel (co-exec)", result->start,
                         result->end);
      if (on_complete) on_complete(*result);
    });
  };

  sim_.schedule_after(fork, [this, gpu_loop, gpu_clauses, cpu_part, result,
                             one_done] {
    if (gpu_loop) {
      // Master thread: target region with nowait.
      gpu_.launch(lower(*gpu_loop, gpu_clauses),
                  [result, one_done](const gpu::KernelResult& r) {
                    result->gpu = r;
                    one_done();
                  });
    }
    if (cpu_part) {
      cpu::CpuReduceRequest request = *cpu_part;
      // The enclosing parallel region's fork/join is modelled here, not in
      // the worksharing loop.
      request.include_region_overhead = false;
      cpu_.reduce(request, [result, one_done](const cpu::CpuReduceResult& r) {
        result->cpu = r;
        one_done();
      });
    }
  });
}

}  // namespace ghs::omp
