#include "ghs/profile/recorder.hpp"

#include "ghs/util/error.hpp"

namespace ghs::profile {

void Recorder::register_device(std::int16_t node, Device device) {
  devices_.try_emplace({node, device});
}

void Recorder::on_launch(const LaunchSample& sample,
                         std::span<const JobCost> jobs) {
  GHS_REQUIRE(!jobs.empty(), "launch sample without jobs");
  GHS_REQUIRE(sample.end >= sample.begin, "launch ends before it begins");

  // Service time: the whole [begin, end) interval occupies the device
  // (the service credits device busy time unconditionally, failures
  // included), so the ledger must charge all of it to keep conservation.
  // A successful GPU launch splits it into the migration share and the
  // kernel; every share is split across the batch by element count.
  const SimTime service = sample.end - sample.begin;
  const bool gpu_success = !sample.failed && sample.device == Device::kGpu;
  const SimTime migrate =
      gpu_success ? sample.kernel_begin - sample.begin : 0;
  GHS_REQUIRE(migrate >= 0 && migrate <= service,
              "kernel_begin outside the launch");
  const Phase phase = sample.failed                   ? Phase::kLaunchFailed
                      : sample.device == Device::kCpu ? Phase::kCpuKernel
                                                      : Phase::kGpuKernel;
  std::int64_t weight_sum = 0;
  for (const JobCost& job : jobs) {
    GHS_REQUIRE(job.elements >= 0, "negative split weight " << job.elements);
    weight_sum += job.elements;
  }
  ProportionalSplit migrate_split(migrate, weight_sum, jobs.size());
  ProportionalSplit service_split(service - migrate, weight_sum,
                                  jobs.size());

  std::size_t heaviest = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobCost& job = jobs[i];
    const CostLedger::RowId row = ledger_.row(job.tenant, job.op, sample.node);
    // Queue wait: device-less (waits never count toward the device-time
    // conservation sums).
    ledger_.charge_time(row, Device::kNone, Phase::kQueueWait,
                        sample.begin - job.enqueued);
    if (gpu_success) {
      ledger_.charge_time(row, sample.device, Phase::kUmMigrate,
                          migrate_split.next(job.elements));
    }
    ledger_.charge_time(row, sample.device, phase,
                        service_split.next(job.elements));
    if (gpu_success && sample.unified) {
      ledger_.charge_bytes(row, sample.device, Phase::kUmMigrate, job.bytes);
    }
    // Ties keep the earliest job, so batches sample deterministically.
    if (job.elements > jobs[heaviest].elements) heaviest = i;
  }

  // Activity for the sampling profiler: attribute the launch to its
  // heaviest job.
  DeviceActivity& activity = devices_[{sample.node, sample.device}];
  activity.begin = sample.begin;
  activity.kernel_begin = sample.kernel_begin;
  activity.end = sample.end;
  activity.tenant = jobs[heaviest].tenant;
  activity.op = jobs[heaviest].op;
  activity.unified = sample.unified;
  activity.failed = sample.failed;
}

void Recorder::on_retry_backoff(std::int16_t node, const JobCost& job,
                                SimTime backoff) {
  ledger_.charge_time({job.tenant, job.op, node, Device::kNone,
                       Phase::kRetryBackoff},
                      backoff);
}

void Recorder::on_bytes(std::int16_t node, const JobCost& job, Phase phase,
                        Bytes bytes) {
  ledger_.charge_bytes({job.tenant, job.op, node, Device::kNone, phase},
                       bytes);
}

}  // namespace ghs::profile
