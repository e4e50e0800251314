// DevicePool: time-shares the simulated H100 and the Grace CPU across
// admitted jobs. A launch is one kernel (or one host parallel region)
// serving one job or a batch of small same-case jobs — batching amortises
// the per-launch runtime overhead exactly the way fusing tiny reductions
// does on the real machine. Every launch is recorded as a Track::kServer
// span so a served workload renders in the Chrome-trace timeline.
//
// With a fault::Injector attached the pool becomes the failure surface:
// bandwidth brown-outs stretch a launch's service time, device-down
// windows and transient kernel faults turn the completion into a failure,
// and the service above decides what to do about it (retry, shed, trip the
// breaker, fall back to the CPU).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ghs/core/reduce.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/job.hpp"
#include "ghs/serve/service_model.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::serve {

struct BatchOptions {
  bool enable = true;
  /// Jobs per launch, including the one the policy selected.
  static constexpr int max_jobs = 8;
  /// Only jobs at or below this element count coalesce.
  static constexpr std::int64_t small_elements = 1 << 20;
  /// Ceiling on a batch's summed element count.
  static constexpr std::int64_t max_batch_elements = 1 << 23;
};

struct DevicePoolStats {
  std::int64_t launches = 0;
  /// Launches that carried more than one job.
  std::int64_t multi_job_launches = 0;
  /// Jobs that rode a multi-job launch.
  std::int64_t batched_jobs = 0;
  std::int64_t gpu_jobs = 0;
  std::int64_t cpu_jobs = 0;
  SimTime gpu_busy = 0;
  SimTime cpu_busy = 0;
  /// Launches that failed (injected faults); their jobs are not counted in
  /// gpu_jobs/cpu_jobs — only served work lands there.
  std::int64_t gpu_failed_launches = 0;
  std::int64_t cpu_failed_launches = 0;
  /// Managed-buffer bytes moved by successful unified launches; the
  /// telemetry side of the profile ledger's um.migrate byte conservation.
  Bytes unified_bytes = 0;
};

/// Outcome of one launch: on success `records` carries one JobRecord per
/// job; on failure the jobs come back unserved for the service to retry,
/// shed, or re-place.
struct LaunchResult {
  Placement device = Placement::kGpu;
  bool failed = false;
  std::vector<JobRecord> records;  // success only
  std::vector<Job> jobs;           // failure only
};

class DevicePool {
 public:
  /// With `use_cpu` false the pool is GPU-only (the CPU never reports
  /// idle), which lets single-device policies run on a matching machine.
  /// `injector` (may be null) degrades launches per its FaultPlan.
  /// `instance_labels` namespace the pool's instruments per cluster node;
  /// empty keeps standalone instrument identities unchanged. `recorder`
  /// (may be null) receives per-launch cost attribution under `node`.
  DevicePool(sim::Simulator& sim, ServiceModel& model, bool use_cpu,
             trace::Tracer* tracer, telemetry::Sink sink = {},
             fault::Injector* injector = nullptr,
             const telemetry::Labels& instance_labels = {},
             profile::Recorder* recorder = nullptr, std::int16_t node = 0);

  bool idle(Placement device) const;
  bool use_cpu() const { return use_cpu_; }

  using Completion = std::function<void(const LaunchResult&)>;

  /// Launches `jobs` as one unit on `device` starting at sim.now();
  /// `tuning` is the GPU geometry (ignored for CPU launches). Fires
  /// `on_complete` with the outcome when service (or failure detection)
  /// ends.
  void launch(Placement device, std::vector<Job> jobs,
              const core::ReduceTuning& tuning, Completion on_complete);

  const DevicePoolStats& stats() const { return stats_; }

 private:
  sim::Simulator& sim_;
  ServiceModel& model_;
  bool use_cpu_;
  trace::Tracer* tracer_;
  fault::Injector* injector_;
  profile::Recorder* recorder_;
  std::int16_t node_;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_gpu_launches_ = nullptr;
  telemetry::Counter* m_cpu_launches_ = nullptr;
  telemetry::Counter* m_batched_jobs_ = nullptr;
  /// Non-null only with Sink::timeline (scraped runs).
  telemetry::Counter* m_gpu_busy_ps_ = nullptr;
  telemetry::Counter* m_cpu_busy_ps_ = nullptr;
  bool gpu_busy_ = false;
  bool cpu_busy_ = false;
  std::int64_t next_launch_id_ = 0;
  DevicePoolStats stats_;
};

}  // namespace ghs::serve
