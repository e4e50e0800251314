// Event-driven GPU execution model.
//
// A kernel executes as a sequence of *waves*: the set of CTAs simultaneously
// resident on the device (occupancy-limited). All CTAs of the reduction
// kernels are identical, so a wave is simulated as one fluid flow whose
// byte count aggregates its CTAs' chunks and whose rate is capped by the
// aggregated warp-MLP limit — contention with the CPU, migrations, and the
// HBM/C2C capacities then emerges from the fluid network. When a wave's
// data drains, its CTAs run their shared-memory reduction tree and enqueue
// one combine operation each on the serial combine unit (the single-address
// atomic path); the kernel completes when the last wave's combines retire.
//
// In UM mode the kernel's range is planned through the UmManager each
// launch: wave flows are split at residency boundaries, remote slices run
// over NVLink-C2C, and fault-migrating slices run at the fault-handling
// rate and flip their pages when they finish — which is exactly the
// mechanism behind the paper's A1/A2 allocation-site results.
#pragma once

#include <functional>
#include <memory>

#include "ghs/gpu/config.hpp"
#include "ghs/gpu/kernel.hpp"
#include "ghs/mem/topology.hpp"
#include "ghs/sim/server.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/um/manager.hpp"

namespace ghs::gpu {

struct GpuDeviceStats {
  std::int64_t kernels_launched = 0;
  std::int64_t waves_executed = 0;
  std::int64_t combines_issued = 0;
};

class GpuDevice {
 public:
  GpuDevice(sim::Simulator& sim, mem::Topology& topology, um::UmManager& um,
            GpuConfig config);

  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  const GpuConfig& config() const { return config_; }

  /// Launches a kernel asynchronously; `on_complete` fires (via the
  /// simulator) when the kernel fully retires. One kernel at a time is
  /// supported — the reduction benchmarks never overlap kernels on the
  /// device.
  void launch(const KernelDesc& desc,
              std::function<void(const KernelResult&)> on_complete);

  bool busy() const { return busy_; }
  const GpuDeviceStats& stats() const { return stats_; }
  /// The serial combine unit the kernels' partials fold through.
  const sim::SerialServer& combine_unit() const { return combine_unit_; }

  /// Installs a span recorder (null disables tracing). Kernel spans go on
  /// the GPU track, per-wave spans on the wave track — enable wave tracing
  /// only for runs with modest grids.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Registers kernel/wave counters and the flight recorder (null members
  /// disable the corresponding channel).
  void set_telemetry(telemetry::Sink sink);

 private:
  struct Execution;

  /// Per-wave bookkeeping shared by the event path and wave trains:
  /// start_wave dispatches the next wave's CTAs and starts (or renews)
  /// its flows; finish_wave records the drained wave and folds its
  /// partials on the combine unit.
  void start_wave(const std::shared_ptr<Execution>& exec);
  void slice_drained(const std::shared_ptr<Execution>& exec);
  void finish_wave(const std::shared_ptr<Execution>& exec);
  void finish_kernel(const std::shared_ptr<Execution>& exec);

  sim::Simulator& sim_;
  mem::Topology& topology_;
  um::UmManager& um_;
  GpuConfig config_;
  sim::SerialServer combine_unit_;
  GpuDeviceStats stats_;
  trace::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* kernels_counter_ = nullptr;
  telemetry::Counter* waves_counter_ = nullptr;
  bool busy_ = false;
};

}  // namespace ghs::gpu
