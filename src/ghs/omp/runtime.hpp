// OpenMP target-offload runtime model.
//
// Exposes the directives the paper's listings use, shaped as an API:
//
//   target teams distribute parallel for reduction(+:sum)     -> target_teams_reduce
//     [num_teams(...)] [thread_limit(...)] [nowait]           -> TeamsClauses
//   target update to/from(sum)                                -> target_update_scalar
//   map(to: in[0:M]) outside UM mode                          -> target_alloc + map_to
//   omp parallel { omp master { target ... nowait } for simd }-> parallel_co_execute
//
// Outside UM mode the input array must be explicitly mapped; the runtime
// tracks device buffers and copies them over the memory topology. In UM mode
// (`unified = true` on the loop) the map clause is a no-op placement hint
// and kernels read managed pages wherever they live — matching the
// `-gpu=mem:unified` semantics the paper describes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ghs/cpu/device.hpp"
#include "ghs/gpu/device.hpp"
#include "ghs/mem/topology.hpp"
#include "ghs/omp/heuristics.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/um/manager.hpp"

namespace ghs::omp {

/// Clauses on the combined teams worksharing-loop construct.
struct TeamsClauses {
  std::optional<std::int64_t> num_teams;
  std::optional<int> thread_limit;
  bool nowait = false;
};

/// The offloaded reduction loop (paper Listings 2/3/5): `iterations` trips,
/// each accumulating `v` elements of `element_size` bytes.
struct OffloadLoop {
  std::string label;
  std::int64_t iterations = 0;
  int v = 1;
  Bytes element_size = 4;
  gpu::CombineClass combine = gpu::CombineClass::kNativeInt;
  gpu::CombineStrategy strategy = gpu::CombineStrategy::kAtomicPerCta;
  /// Input arrays read per loop element (2 for a dot product).
  int input_streams = 1;

  /// UM mode: input is a managed allocation; otherwise it must have been
  /// mapped to a device buffer.
  bool unified = false;
  um::AllocId managed_alloc = 0;
  Bytes range_offset = 0;

  std::int64_t elements() const {
    return iterations * static_cast<std::int64_t>(v);
  }
};

using DeviceBufferId = std::uint32_t;

struct RuntimeOptions {
  GridHeuristic heuristic;
  /// Host-side latency of a `target update` of a scalar (runtime call +
  /// tiny transfer).
  SimTime scalar_update_latency = from_nanoseconds(3000.0);
};

/// Result of a co-executed parallel region (paper Listing 7).
struct CoExecResult {
  SimTime start = 0;
  SimTime end = 0;
  /// Present when the region offloaded work / ran a CPU loop.
  std::optional<gpu::KernelResult> gpu;
  std::optional<cpu::CpuReduceResult> cpu;

  SimTime duration() const { return end - start; }
};

class Runtime {
 public:
  /// `tracer` records runtime-level spans (co-execution regions, map
  /// copies); null disables.
  Runtime(sim::Simulator& sim, mem::Topology& topology, um::UmManager& um,
          gpu::GpuDevice& gpu, cpu::CpuDevice& cpu, RuntimeOptions options,
          trace::Tracer* tracer = nullptr);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sim::Simulator& sim() { return sim_; }
  gpu::GpuDevice& gpu() { return gpu_; }
  cpu::CpuDevice& cpu() { return cpu_; }
  um::UmManager& um() { return um_; }
  const RuntimeOptions& options() const { return options_; }

  // --- explicit data environment (non-UM mode) ---

  /// Allocates a device-resident buffer (what `map(alloc:)` would create).
  DeviceBufferId target_alloc(Bytes size, std::string label);

  /// Copies host data into a device buffer (`map(to:)` / `target update
  /// to`); completion via callback.
  void map_to(DeviceBufferId buffer, std::function<void()> on_complete);

  // --- constructs ---

  /// `target update to/from(scalar)`: fixed-latency runtime call.
  void target_update_scalar(std::function<void()> on_complete);

  /// The combined construct with a reduction clause. Applies the grid
  /// heuristic when num_teams is absent; completion delivers the kernel
  /// timing.
  void target_teams_reduce(
      const OffloadLoop& loop, const TeamsClauses& clauses,
      std::function<void(const gpu::KernelResult&)> on_complete);

  /// Paper Listing 7: a host parallel region whose master thread launches
  /// the target region with nowait while the remaining threads run the
  /// `for simd` loop; the implicit barrier joins both. Either part may be
  /// absent (p = 0 or p = 1).
  void parallel_co_execute(
      const std::optional<OffloadLoop>& gpu_loop,
      const TeamsClauses& gpu_clauses,
      const std::optional<cpu::CpuReduceRequest>& cpu_part,
      std::function<void(const CoExecResult&)> on_complete);

  /// The grid the heuristic would pick for an unclaused loop (exposed for
  /// tests and the ablation bench).
  std::int64_t default_grid(std::int64_t iterations) const;

  /// Builds the kernel descriptor a loop+clauses pair lowers to (exposed
  /// for tests).
  gpu::KernelDesc lower(const OffloadLoop& loop,
                        const TeamsClauses& clauses) const;

 private:
  trace::Tracer* tracer_;

  struct DeviceBuffer {
    Bytes size = 0;
  };

  sim::Simulator& sim_;
  mem::Topology& topology_;
  um::UmManager& um_;
  gpu::GpuDevice& gpu_;
  cpu::CpuDevice& cpu_;
  RuntimeOptions options_;
  std::vector<DeviceBuffer> buffers_;
};

}  // namespace ghs::omp
