// Service-time model for the request-serving layer.
//
// A served job's cost is not guessed from peak bandwidth: each distinct
// shape (case, elements, geometry, processor) is priced by actually running
// the repository's reduction models once on a fresh Platform — a Listing 6
// single repetition for the GPU, a host worksharing reduction for the Grace
// CPU — and the resulting simulated duration is memoised. The serve layer
// then replays those durations while time-sharing the devices, so a
// thousand-job workload costs a handful of substrate simulations rather
// than a thousand.
#pragma once

#include <cstdint>
#include <tuple>
#include <unordered_map>

#include "ghs/core/reduce.hpp"
#include "ghs/core/system_config.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::serve {

struct ServiceModelOptions {
  core::SystemConfig config = core::gh200_config();
  /// Instruments the pricing platforms and (through the policies that hold
  /// the model) the tuner; null members disable.
  telemetry::Sink telemetry;
};

class ServiceModel {
 public:
  explicit ServiceModel(ServiceModelOptions options = {});

  /// Duration of one optimized-kernel repetition (update-to + kernel +
  /// update-from) for the shape, under `tuning`.
  SimTime gpu_service(workload::CaseId case_id, std::int64_t elements,
                      const core::ReduceTuning& tuning);

  /// Duration of a host `parallel for simd reduction` over the shape on
  /// min(72, config.cpu.cores) threads (input resident in LPDDR).
  SimTime cpu_service(workload::CaseId case_id, std::int64_t elements);

  /// Duration of one GPU repetition over a *managed* buffer whose pages
  /// start CPU-resident (allocation-site A2): the cost amortises the
  /// fault-driven migration the first pass triggers with one warm pass,
  /// matching a tenant that reuses its buffer.
  SimTime unified_gpu_service(workload::CaseId case_id, std::int64_t elements,
                              const core::ReduceTuning& tuning);

  /// The page-migration share of unified_gpu_service for the shape: the
  /// amortised unified cost minus the explicit-map kernel cost, clamped at
  /// zero. Both components are memoised, so this prices from the cache.
  /// The tracer uses it to split a unified launch into its um.migrate and
  /// gpu.kernel child spans.
  SimTime unified_migration_share(workload::CaseId case_id,
                                  std::int64_t elements,
                                  const core::ReduceTuning& tuning);

  const ServiceModelOptions& options() const { return options_; }

  /// Shape-cache effectiveness (one miss = one substrate simulation).
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  // (device, case, elements, teams, thread_limit, v, strategy); device is
  // 0 = explicit-map GPU, 1 = CPU, 2 = unified-memory GPU. CPU entries
  // zero the geometry fields.
  using Key = std::tuple<int, int, std::int64_t, std::int64_t, int, int, int>;

  // Pricing sits on the per-launch hot path (hundreds of thousands of
  // lookups in a million-job run), so the memo is hashed, not ordered.
  // Nothing iterates the cache; only hits_/misses_ are observable.
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ull;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      };
      mix(static_cast<std::uint64_t>(std::get<0>(key)));
      mix(static_cast<std::uint64_t>(std::get<1>(key)));
      mix(static_cast<std::uint64_t>(std::get<2>(key)));
      mix(static_cast<std::uint64_t>(std::get<3>(key)));
      mix(static_cast<std::uint64_t>(std::get<4>(key)));
      mix(static_cast<std::uint64_t>(std::get<5>(key)));
      mix(static_cast<std::uint64_t>(std::get<6>(key)));
      return static_cast<std::size_t>(h);
    }
  };

  ServiceModelOptions options_;
  /// Host threads a CPU-placed job reduces with.
  int cpu_threads_;
  std::unordered_map<Key, SimTime, KeyHash> cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace ghs::serve
