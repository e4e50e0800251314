#include "ghs/serve/service_model.hpp"

#include <algorithm>

#include "ghs/core/platform.hpp"
#include "ghs/cpu/device.hpp"
#include "ghs/util/error.hpp"

namespace ghs::serve {

ServiceModel::ServiceModel(ServiceModelOptions options)
    : options_(std::move(options)),
      cpu_threads_(std::min(72, options_.config.cpu.cores)) {}

ServiceModel::Key ServiceModel::gpu_key(int device, workload::CaseId case_id,
                                        std::int64_t elements,
                                        const core::ReduceTuning& tuning) {
  return {device | static_cast<int>(case_id) << 8 |
              static_cast<int>(tuning.strategy) << 16,
          elements, tuning.teams, tuning.thread_limit, tuning.v};
}

template <typename Price>
SimTime ServiceModel::memo(const Key& key, Price price) {
  if (const SimTime* duration = cache_.find(key)) {
    ++hits_;
    return *duration;
  }
  ++misses_;
  core::Platform platform(options_.config, options_.telemetry);
  const SimTime duration = price(platform);
  cache_.insert(key, duration);
  return duration;
}

SimTime ServiceModel::gpu_service(workload::CaseId case_id,
                                  std::int64_t elements,
                                  const core::ReduceTuning& tuning) {
  const Key key = gpu_key(0, case_id, elements, tuning);
  return memo(key, [&](core::Platform& platform) {
    core::GpuBenchmark bench;
    bench.case_id = case_id;
    bench.tuning = tuning;
    bench.elements = elements;
    bench.iterations = 1;
    return core::run_gpu_benchmark(platform, bench).elapsed;
  });
}

SimTime ServiceModel::unified_gpu_service(workload::CaseId case_id,
                                          std::int64_t elements,
                                          const core::ReduceTuning& tuning) {
  const Key key = gpu_key(2, case_id, elements, tuning);
  return memo(key, [&](core::Platform& platform) {
    // GPU-only point (p = 0) of the Listing 8 protocol, allocation-site
    // A2: pages first-touch in LPDDR, so repetition one pays the
    // fault-driven migration and repetition two streams from HBM. Two
    // repetitions halve into the amortised per-service cost.
    core::HeteroBenchmark bench;
    bench.case_id = case_id;
    bench.tuning = tuning;
    bench.site = core::AllocSite::kA2;
    bench.cpu_parts = {0.0};
    bench.elements = elements;
    bench.iterations = 2;
    bench.cpu_threads = cpu_threads_;
    const auto result = core::run_hetero_benchmark(platform, bench);
    const SimTime duration = result.at(0.0).elapsed / bench.iterations;
    GHS_REQUIRE(duration > 0, "unified pricing produced no duration");
    return duration;
  });
}

SimTime ServiceModel::unified_migration_share(workload::CaseId case_id,
                                              std::int64_t elements,
                                              const core::ReduceTuning& tuning) {
  const SimTime unified = unified_gpu_service(case_id, elements, tuning);
  const SimTime explicit_map = gpu_service(case_id, elements, tuning);
  return unified > explicit_map ? unified - explicit_map : 0;
}

SimTime ServiceModel::cpu_service(workload::CaseId case_id,
                                  std::int64_t elements) {
  const Key key{1 | static_cast<int>(case_id) << 8, elements, 0, 0, 0};
  return memo(key, [&](core::Platform& platform) {
    const auto& spec = workload::case_spec(case_id);
    cpu::CpuReduceRequest request;
    request.label = spec.name;
    request.elements = elements;
    request.element_size = spec.element_size;
    request.threads = cpu_threads_;
    SimTime duration = 0;
    platform.cpu().reduce(request, [&duration](const cpu::CpuReduceResult& r) {
      duration = r.duration();
    });
    platform.run();
    GHS_REQUIRE(duration > 0, "CPU reduction produced no duration");
    return duration;
  });
}

}  // namespace ghs::serve
