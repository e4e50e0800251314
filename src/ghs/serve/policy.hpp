// Scheduler policies: given the admission queue and a processor that just
// went idle, a policy picks the job to dispatch there (or leaves the
// processor idle), and chooses the launch geometry for GPU-placed jobs.
//
//   FIFO              arrival order, GPU only, paper-best geometry.
//   SJF               smallest-bytes first, GPU only, paper-best geometry.
//   BandwidthAware    work-conserving across GPU *and* Grace CPU: small
//                     jobs whose host-side reduction is competitive are
//                     eligible for the CPU, so both processors drain the
//                     queue in parallel; GPU geometry comes from the
//                     coordinate-descent Tuner, memoised per shape.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "ghs/core/reduce.hpp"
#include "ghs/core/tuner.hpp"
#include "ghs/serve/queue.hpp"
#include "ghs/serve/service_model.hpp"

namespace ghs::serve {

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual const char* name() const = 0;

  /// Queue position of the job to dispatch next on `device`, or nullopt to
  /// leave the device idle for now.
  virtual std::optional<std::size_t> select(const AdmissionQueue& queue,
                                            Placement device,
                                            SimTime now) = 0;

  /// Launch geometry for a GPU-placed job.
  virtual core::ReduceTuning geometry(const Job& job) = 0;
};

/// Arrival order, GPU only.
class FifoPolicy : public SchedulerPolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::optional<std::size_t> select(const AdmissionQueue& queue,
                                    Placement device, SimTime now) override;
  core::ReduceTuning geometry(const Job& job) override;
};

/// Smallest job (by bytes) first, GPU only. Bytes are the service-time
/// proxy: every case streams the input once, so service is ~bytes/BW.
class ShortestJobFirstPolicy : public SchedulerPolicy {
 public:
  const char* name() const override { return "sjf"; }
  std::optional<std::size_t> select(const AdmissionQueue& queue,
                                    Placement device, SimTime now) override;
  core::ReduceTuning geometry(const Job& job) override;
};

struct TunerCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

class BandwidthAwarePolicy : public SchedulerPolicy {
 public:
  struct Options {
    /// Probe budget per distinct (case, elements) shape; each probe is one
    /// simulated Listing 6 run inside the Tuner's hill climb.
    int max_probes = 24;
    /// Largest job the Grace CPU may absorb.
    Bytes max_cpu_bytes = 64 * kMiB;
  };

  /// A job is CPU-eligible when the host reduction costs at most this
  /// multiple of the tuned GPU service for the same shape.
  static constexpr double kCpuSlowdownLimit = 8.0;

  /// `model` prices CPU-vs-GPU placement; its SystemConfig also drives the
  /// tuner probes so cached geometries match the machine being served.
  BandwidthAwarePolicy(ServiceModel& model, Options options);
  explicit BandwidthAwarePolicy(ServiceModel& model)
      : BandwidthAwarePolicy(model, Options{}) {}

  const char* name() const override { return "bandwidth"; }
  std::optional<std::size_t> select(const AdmissionQueue& queue,
                                    Placement device, SimTime now) override;

  /// Tuned geometry for the job's shape; runs the coordinate-descent tuner
  /// on a miss and serves repeats from the cache.
  core::ReduceTuning geometry(const Job& job) override;

  const TunerCacheStats& tuner_cache() const { return cache_stats_; }

  /// Whether `job` may be dispatched to the Grace CPU.
  bool cpu_eligible(const Job& job);

 private:
  // (case, elements, config fingerprint) -> tuned geometry.
  using Key = std::tuple<int, std::int64_t, std::int64_t>;

  ServiceModel& model_;
  Options options_;
  std::int64_t config_fingerprint_ = 0;
  std::map<Key, core::ReduceTuning> cache_;
  TunerCacheStats cache_stats_;
};

/// Factory used by benches/examples: "fifo" | "sjf" | "bandwidth".
std::unique_ptr<SchedulerPolicy> make_policy(const std::string& name,
                                             ServiceModel& model);

}  // namespace ghs::serve
