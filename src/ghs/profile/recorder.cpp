#include "ghs/profile/recorder.hpp"

#include "ghs/util/error.hpp"

namespace ghs::profile {

void Recorder::register_device(std::int16_t node, Device device) {
  devices_.try_emplace({node, device});
}

void Recorder::on_launch(const LaunchSample& sample,
                         const std::vector<JobCost>& jobs) {
  GHS_REQUIRE(!jobs.empty(), "launch sample without jobs");
  GHS_REQUIRE(sample.end >= sample.begin, "launch ends before it begins");

  // Queue wait: per-job, device-less (waits never count toward the
  // device-time conservation sums).
  for (const JobCost& job : jobs) {
    const SimTime wait = sample.begin - job.enqueued;
    ledger_.charge_time({job.tenant, job.op, sample.node, Device::kNone,
                         Phase::kQueueWait},
                        wait);
  }

  // Service time: the whole [begin, end) interval occupies the device
  // (the service credits device busy time unconditionally, failures
  // included), so the ledger must charge all of it to keep conservation.
  std::vector<std::int64_t> weights;
  weights.reserve(jobs.size());
  for (const JobCost& job : jobs) weights.push_back(job.elements);

  const auto charge_span = [&](Phase phase, SimTime total) {
    const std::vector<std::int64_t> shares =
        split_proportional(total, weights);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ledger_.charge_time({jobs[i].tenant, jobs[i].op, sample.node,
                           sample.device, phase},
                          shares[i]);
    }
  };

  const SimTime service = sample.end - sample.begin;
  if (sample.failed) {
    charge_span(Phase::kLaunchFailed, service);
  } else if (sample.device == Device::kCpu) {
    charge_span(Phase::kCpuKernel, service);
  } else {
    const SimTime migrate = sample.kernel_begin - sample.begin;
    GHS_REQUIRE(migrate >= 0 && migrate <= service,
                "kernel_begin outside the launch");
    charge_span(Phase::kUmMigrate, migrate);
    charge_span(Phase::kGpuKernel, service - migrate);
    if (sample.unified) {
      for (const JobCost& job : jobs) {
        ledger_.charge_bytes({job.tenant, job.op, sample.node, sample.device,
                              Phase::kUmMigrate},
                             job.bytes);
      }
    }
  }

  // Activity for the sampling profiler: attribute the launch to its
  // heaviest job (ties keep the earliest, so batches sample
  // deterministically).
  std::size_t heaviest = 0;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (jobs[i].elements > jobs[heaviest].elements) heaviest = i;
  }
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
