// CPU-side reduction execution model.
//
// A reduction over [offset, offset+bytes) of an input array is statically
// partitioned across the requested threads. In UM mode the range is planned
// through the UmManager: each residency segment becomes a fluid flow capped
// by the cores that own it under the static schedule (so a slow remote
// segment creates stragglers, as it does on the real machine), and the
// reduction completes when the last segment drains plus the parallel-region
// join overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ghs/cpu/config.hpp"
#include "ghs/mem/topology.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/um/manager.hpp"
#include "ghs/util/units.hpp"

namespace ghs::cpu {

/// OpenMP loop schedule of the host worksharing loop. The paper's code is
/// `schedule(static)` (the default); dynamic scheduling matters when the
/// range mixes LPDDR-resident and HBM-resident pages — under static, the
/// threads that drew the remote pages straggle, under dynamic the pool
/// rebalances.
enum class ScheduleKind { kStatic, kDynamic, kGuided };

const char* schedule_name(ScheduleKind schedule);

struct CpuReduceRequest {
  std::string label;
  std::int64_t elements = 0;
  Bytes element_size = 4;
  /// Threads participating (<= config.cores).
  int threads = 0;
  /// Whether the loop carries the `simd` directive (vectorised body).
  bool use_simd = true;
  /// Input arrays streamed per element (2 for a dot product); multi-stream
  /// requests are modelled for non-managed (explicit) inputs only.
  int input_streams = 1;
  ScheduleKind schedule = ScheduleKind::kStatic;

  /// kManaged: plan residency through the UmManager. Otherwise the range is
  /// assumed resident in LPDDR (explicit-mode host arrays).
  bool managed = false;
  um::AllocId managed_alloc = 0;
  Bytes range_offset = 0;

  /// Charge the parallel-region fork/join overhead (false when the caller
  /// models the enclosing parallel region itself, as co-execution does).
  bool include_region_overhead = true;

  Bytes total_bytes() const {
    return elements * element_size * input_streams;
  }
};

struct CpuReduceResult {
  SimTime start = 0;
  SimTime end = 0;
  Bytes bytes = 0;
  Bytes remote_bytes = 0;

  SimTime duration() const { return end - start; }
  Bandwidth bandwidth() const { return achieved_bandwidth(bytes, duration()); }
};

class CpuDevice {
 public:
  /// `tracer` records each reduction's span (null disables tracing).
  CpuDevice(sim::Simulator& sim, mem::Topology& topology, um::UmManager& um,
            CpuConfig config, trace::Tracer* tracer = nullptr);

  CpuDevice(const CpuDevice&) = delete;
  CpuDevice& operator=(const CpuDevice&) = delete;

  const CpuConfig& config() const { return config_; }

  /// Runs the reduction asynchronously; `on_complete` fires when the last
  /// straggler thread finishes.
  void reduce(const CpuReduceRequest& request,
              std::function<void(const CpuReduceResult&)> on_complete);

  /// Socket-level compute-throughput cap for a loop shape, bytes/s.
  double compute_rate_cap(int threads, bool use_simd,
                          Bytes element_size) const;

 private:
  trace::Tracer* tracer_;
  sim::Simulator& sim_;
  mem::Topology& topology_;
  um::UmManager& um_;
  CpuConfig config_;
  /// Socket-mesh resource every CPU stream traverses, so concurrent local
  /// and remote streams share the socket's aggregate limit.
  sim::ResourceId socket_;
};

}  // namespace ghs::cpu
