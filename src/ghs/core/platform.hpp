// The assembled simulated machine: simulator + memory topology + UM manager
// + GPU + CPU + OpenMP runtime, wired together in dependency order. One
// Platform is one "boot" of the machine; benchmark points that must not
// share state (e.g. independent Fig. 1 sweep points) each construct a fresh
// Platform, while the UM allocation-site experiments deliberately reuse one
// so page residency history carries across the p-sweep, as it does on the
// real machine.
#pragma once

#include <cstdint>
#include <functional>

#include "ghs/core/system_config.hpp"
#include "ghs/cpu/device.hpp"
#include "ghs/gpu/device.hpp"
#include "ghs/mem/topology.hpp"
#include "ghs/omp/runtime.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/um/manager.hpp"

namespace ghs::core {

class Platform {
 public:
  /// `sink` wires metric instruments and the flight recorder into the
  /// simulator, the GPU and the UM manager; `tracer` records the spans of
  /// every device and the runtime. Both are externally owned (one registry
  /// typically outlives many platforms, so their counts accumulate), and
  /// null members disable the corresponding channel.
  explicit Platform(const SystemConfig& config = gh200_config(),
                    telemetry::Sink sink = {},
                    trace::Tracer* tracer = nullptr);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const SystemConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  mem::Topology& topology() { return topology_; }
  um::UmManager& um() { return um_; }
  gpu::GpuDevice& gpu() { return gpu_; }
  cpu::CpuDevice& cpu() { return cpu_; }
  omp::Runtime& runtime() { return runtime_; }

  /// Drains the event queue (runs all scheduled work to completion).
  void run() { sim_.run(); }

  /// Runs `repetition` `count` times. Each call issues one repetition of a
  /// measurement protocol and drains it with run(); it must carry no state
  /// of its own from one call to the next.
  ///
  /// After each repetition the platform digests what a later event can
  /// read, with times relative to now: the UM page table, and the GPU's
  /// busy flag and combine backlog (the event queue and the fluid network
  /// are empty). A repetition that leaves the digest it found would be
  /// replayed bit for bit by every later one, since time is whole
  /// picoseconds and every rate depends only on time differences. So the
  /// rest are not simulated. The clock moves on by their duration, and by
  /// their increments so do the simulator's event count and sequence
  /// number, the fluid network's next FlowId and wake generation, the UM
  /// and GPU stats, the telemetry counters beside them (ghs_sim_*,
  /// ghs_um_*, ghs_gpu_*), and the combine unit's busy time and
  /// completions (its availability by their duration, if they used it).
  /// With a tracer or a flight recorder attached, each of which records
  /// every repetition, all of them are simulated. Throws OverflowError
  /// when the skipped repetitions pass the range of the clock or of a
  /// count; the platform is then part-way through the skip and must not be
  /// reused.
  void repeat(std::int64_t count, const std::function<void()>& repetition);

  /// Repetitions repeat() has simulated and skipped on this platform.
  std::int64_t repetitions_simulated() const { return simulated_; }
  std::int64_t repetitions_skipped() const { return skipped_; }

 private:
  /// The digest and every count a skip advances.
  struct Mark;
  Mark mark() const;
  /// Moves the drained platform on by `k` repetitions like the one since
  /// `since`.
  void skip(const Mark& since, std::int64_t k);

  SystemConfig config_;
  /// A tracer or a flight recorder is attached: each records every
  /// repetition, so repeat() skips none.
  bool records_every_repetition_;
  sim::Simulator sim_;
  mem::Topology topology_;
  um::UmManager um_;
  gpu::GpuDevice gpu_;
  cpu::CpuDevice cpu_;
  omp::Runtime runtime_;
  std::int64_t simulated_ = 0;
  std::int64_t skipped_ = 0;
};

}  // namespace ghs::core
