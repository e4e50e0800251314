// Recorder: the charging surface ghs::serve and ghs::cluster call into
// when profiling is on. The service reports every launch (with the
// per-job element weights) and every retry backoff, and the cluster
// reports interconnect transfers / steals / drains / journal replays; the
// recorder turns each into exact CostLedger charges and
// keeps a per-(node, device) activity registry the sampling Profiler
// reads to answer "what is this device doing right now".
//
// All hooks are opt-in through a null pointer (the trace::Tracer /
// telemetry::Sink pattern): with no recorder attached the serving stack
// takes no profiling branches and its outputs stay byte-identical.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "ghs/profile/cost_ledger.hpp"
#include "ghs/util/units.hpp"

namespace ghs::profile {

/// Per-job attribution input for one launch; the caller fills it from
/// serve::Job so the profile module never depends on serve.
struct JobCost {
  std::int64_t tenant = 0;
  /// workload::CaseId underlying value.
  std::uint8_t op = 0;
  std::int64_t elements = 0;
  Bytes bytes = 0;
  /// When the job entered the admission queue (queue-wait charging).
  SimTime enqueued = 0;
};

/// One serve::ReductionService launch, batch-level.
struct LaunchSample {
  std::int16_t node = 0;
  Device device = Device::kGpu;
  SimTime begin = 0;
  /// Kernel start within the launch; > begin only for unified launches
  /// whose managed buffers migrate first. Ignored for CPU launches.
  SimTime kernel_begin = 0;
  SimTime end = 0;
  bool unified = false;
  bool failed = false;
};

/// What a device is doing right now, for the sampling Profiler. The
/// representative tenant/op is the launch's heaviest job (ties keep the
/// earliest), so batch samples attribute to the job that dominates the
/// service time.
struct DeviceActivity {
  SimTime begin = 0;
  SimTime kernel_begin = 0;
  /// The device is busy while sim.now() < end.
  SimTime end = 0;
  std::int64_t tenant = 0;
  std::uint8_t op = 0;
  bool unified = false;
  bool failed = false;
};

class Recorder {
 public:
  /// Announces a device so the profiler samples it (as idle) even before
  /// its first launch. Called from ReductionService construction.
  void register_device(std::int16_t node, Device device);

  /// Charges one launch: queue wait per job, then the service time split
  /// across the batch proportionally to element count — um.migrate +
  /// gpu.kernel for unified GPU launches, gpu.kernel / cpu.reduce
  /// otherwise, launch.failed for faulted launches (whose service time
  /// still occupies the device). Unified successes also charge the jobs'
  /// buffer bytes to um.migrate. Each job's charges land in its one
  /// ledger row, and the split is computed as the jobs are walked, so a
  /// launch allocates nothing.
  void on_launch(const LaunchSample& sample, std::span<const JobCost> jobs);

  /// Charges a retry's backoff delay (device kNone; wait, not busy time).
  void on_retry_backoff(std::int16_t node, const JobCost& job,
                        SimTime backoff);

  /// Charges interconnect/journal bytes (phase kTransfer/kSteal/kDrain/
  /// kReplay, device kNone).
  void on_bytes(std::int16_t node, const JobCost& job, Phase phase,
                Bytes bytes);

  CostLedger& ledger() { return ledger_; }
  const CostLedger& ledger() const { return ledger_; }

  /// Sorted so the profiler's folded stacks and slice tracks come out in
  /// deterministic (node, device) order.
  const std::map<std::pair<std::int16_t, Device>, DeviceActivity>& devices()
      const {
    return devices_;
  }

 private:
  CostLedger ledger_;
  std::map<std::pair<std::int16_t, Device>, DeviceActivity> devices_;
};

}  // namespace ghs::profile
