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

#include "ghs/core/reduce.hpp"
#include "ghs/core/system_config.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/flat_table.hpp"
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
  // (device | case << 8 | strategy << 16, elements, teams, thread_limit,
  // v); device is 0 = explicit-map GPU, 1 = CPU, 2 = unified-memory GPU.
  // CPU entries zero the geometry fields.
  using Key = FlatTable<5, SimTime>::Key;

  static Key gpu_key(int device, workload::CaseId case_id,
                     std::int64_t elements, const core::ReduceTuning& tuning);

  /// The memoised duration for `key`; a miss prices it once with
  /// `price(platform)` on a fresh instrumented core::Platform. Defined in
  /// the .cpp, its only user, so a hit inlines to one find.
  template <typename Price>
  SimTime memo(const Key& key, Price price);

  ServiceModelOptions options_;
  /// Host threads a CPU-placed job reduces with.
  int cpu_threads_;
  /// Pricing sits on the per-launch hot path (millions of lookups in a
  /// million-job run), so the memo is a flat open-addressed table: a hit
  /// hashes five words and reads one or two adjacent slots. Nothing
  /// iterates it; only hits_/misses_ are observable.
  FlatTable<5, SimTime> cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace ghs::serve
