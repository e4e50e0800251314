// Auto-tuner for the reduction's launch parameters.
//
// The paper finds its best (teams, V) by exhaustive sweep (61 points per
// case). This tuner finds an equivalent configuration in a fraction of the
// evaluations with coordinate-descent hill climbing over the paper's
// power-of-two lattice (teams 128-65,536, V 1-32, thread_limit pinned at
// 256): from a seed point, repeatedly try doubling/halving teams and V and
// move while bandwidth improves.
// Every probe is a fresh-platform Listing 6 run, so probe count equals
// simulated-experiment count — which is the budget on real hardware too.
#pragma once

#include <cstdint>
#include <vector>

#include "ghs/core/reduce.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::core {

struct TunerOptions {
  /// Elements per probe; 0 = the case's paper M.
  std::int64_t elements = 0;
  /// Timed repetitions per probe (bandwidth is insensitive; keep small).
  int iterations = 3;
  /// Abort knob: give up after this many probes.
  int max_probes = 100;
  SystemConfig config = gh200_config();
  /// Metric instruments + flight recorder for the probes' platforms and the
  /// tuner's own run/probe counters (null members disable).
  telemetry::Sink telemetry;
};

struct TunerProbe {
  ReduceTuning tuning;
  double gbps = 0.0;
};

struct TunerResult {
  ReduceTuning best;
  double best_gbps = 0.0;
  /// Every configuration evaluated, in order (for reporting/tests).
  std::vector<TunerProbe> probes;

  std::size_t evaluations() const { return probes.size(); }
};

/// Runs the hill climb for one case, starting from `seed`, which must lie
/// on the lattice.
TunerResult tune_reduction(workload::CaseId case_id, ReduceTuning seed,
                           const TunerOptions& options);

/// Convenience: seed from a mid-lattice point (teams 4096, V 4).
TunerResult tune_reduction(workload::CaseId case_id,
                           const TunerOptions& options);

}  // namespace ghs::core
