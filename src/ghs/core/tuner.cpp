#include "ghs/core/tuner.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"
#include "ghs/util/log.hpp"
#include "ghs/util/math.hpp"

namespace ghs::core {

namespace {

/// The search lattice (inclusive, powers of two), as the paper sweeps it.
constexpr std::int64_t kMinTeams = 128;
constexpr std::int64_t kMaxTeams = 65536;
constexpr int kMaxV = 32;
constexpr int kThreadLimit = 256;

/// Evaluates one configuration on a fresh platform; returns GB/s.
double probe(workload::CaseId case_id, const ReduceTuning& tuning,
             const TunerOptions& options) {
  Platform platform(options.config);
  if (options.telemetry) platform.set_telemetry(options.telemetry);
  if (options.telemetry.metrics != nullptr) {
    options.telemetry.metrics
        ->counter("ghs_tuner_probes_total", {},
                  "Fresh-platform configurations evaluated by the tuner")
        .inc();
  }
  GpuBenchmark bench;
  bench.case_id = case_id;
  bench.tuning = tuning;
  bench.elements = options.elements;
  bench.iterations = options.iterations;
  return run_gpu_benchmark(platform, bench).bandwidth.gbps();
}

bool in_bounds(const ReduceTuning& t) {
  return t.teams >= kMinTeams && t.teams <= kMaxTeams &&
         t.v >= 1 && t.v <= kMaxV &&
         t.thread_limit == kThreadLimit && t.teams % t.v == 0;
}

}  // namespace

TunerResult tune_reduction(workload::CaseId case_id, ReduceTuning seed,
                           const TunerOptions& options) {
  GHS_REQUIRE(is_pow2(seed.teams) && is_pow2(seed.v),
              "seed must lie on the power-of-two lattice");
  GHS_REQUIRE(in_bounds(seed), "seed outside the search bounds");

  if (options.telemetry.metrics != nullptr) {
    options.telemetry.metrics
        ->counter("ghs_tuner_runs_total", {},
                  "Hill-climb tuning runs started")
        .inc();
  }
  TunerResult result;
  const auto evaluate = [&](const ReduceTuning& tuning) {
    const double gbps = probe(case_id, tuning, options);
    result.probes.push_back(TunerProbe{tuning, gbps});
    return gbps;
  };

  ReduceTuning current = seed;
  double current_gbps = evaluate(current);
  result.best = current;
  result.best_gbps = current_gbps;

  bool improved = true;
  while (improved &&
         result.probes.size() < static_cast<std::size_t>(options.max_probes)) {
    improved = false;
    // Candidate moves: double/halve teams and V.
    std::vector<ReduceTuning> candidates;
    for (int direction : {+1, -1}) {
      ReduceTuning t = current;
      t.teams = direction > 0 ? current.teams * 2 : current.teams / 2;
      candidates.push_back(t);
      t = current;
      t.v = direction > 0 ? current.v * 2 : std::max(1, current.v / 2);
      candidates.push_back(t);
    }
    for (const auto& candidate : candidates) {
      if (!in_bounds(candidate)) continue;
      if (result.probes.size() >=
          static_cast<std::size_t>(options.max_probes)) {
        break;
      }
      const double gbps = evaluate(candidate);
      if (gbps > current_gbps * (1.0 + 1e-6)) {
        current = candidate;
        current_gbps = gbps;
        improved = true;
      }
      if (gbps > result.best_gbps) {
        result.best = candidate;
        result.best_gbps = gbps;
      }
    }
  }
  GHS_INFO("tuner: " << result.evaluations() << " probes, best "
                     << result.best_gbps << " GB/s at teams="
                     << result.best.teams << " v=" << result.best.v);
  return result;
}

TunerResult tune_reduction(workload::CaseId case_id,
                           const TunerOptions& options) {
  ReduceTuning seed;
  seed.teams = 4096;
  seed.thread_limit = kThreadLimit;
  seed.v = 4;
  return tune_reduction(case_id, seed, options);
}

}  // namespace ghs::core
