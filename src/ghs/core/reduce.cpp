#include "ghs/core/reduce.hpp"

#include <algorithm>
#include <cmath>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::core {

using workload::CaseId;
using workload::case_spec;

ReduceTuning paper_best_tuning(CaseId case_id) {
  ReduceTuning tuning;
  tuning.teams = 65536;
  tuning.thread_limit = 256;
  tuning.v = (case_id == CaseId::kC2) ? 32 : 4;
  return tuning;
}

omp::OffloadLoop make_reduction_loop(CaseId case_id, std::int64_t elements,
                                     int v, bool unified,
                                     um::AllocId managed_alloc,
                                     Bytes range_offset) {
  const auto& spec = case_spec(case_id);
  GHS_REQUIRE(elements > 0, "elements=" << elements);
  GHS_REQUIRE(v >= 1, "v=" << v);
  omp::OffloadLoop loop;
  loop.label = std::string(spec.name) + (v == 1 ? "-baseline" : "-opt");
  loop.iterations = elements / v;
  GHS_REQUIRE(loop.iterations > 0,
              "elements=" << elements << " smaller than v=" << v);
  loop.v = v;
  loop.element_size = spec.element_size;
  loop.combine = spec.combine;
  loop.unified = unified;
  loop.managed_alloc = managed_alloc;
  loop.range_offset = range_offset;
  return loop;
}

omp::TeamsClauses make_clauses(const std::optional<ReduceTuning>& tuning) {
  omp::TeamsClauses clauses;
  if (tuning) {
    GHS_REQUIRE(tuning->teams > 0 && tuning->teams % tuning->v == 0,
                "teams=" << tuning->teams << " not divisible by v="
                         << tuning->v);
    clauses.num_teams = tuning->teams / tuning->v;
    clauses.thread_limit = tuning->thread_limit;
  }
  return clauses;
}

GpuBenchmarkResult run_gpu_benchmark(Platform& platform,
                                     const GpuBenchmark& bench) {
  const auto& spec = case_spec(bench.case_id);
  const std::int64_t elements =
      bench.elements > 0 ? bench.elements : spec.paper_elements;
  GHS_REQUIRE(bench.iterations > 0, "iterations=" << bench.iterations);
  const int v = bench.tuning ? bench.tuning->v : 1;

  auto& rt = platform.runtime();
  auto& sim = platform.sim();

  // Untimed: allocate and map the input array to the device (the paper
  // excludes the host-to-device transfer from the measurement).
  const Bytes bytes = elements * spec.element_size;
  const auto buffer = rt.target_alloc(bytes, spec.name);
  rt.map_to(buffer, nullptr);
  platform.run();

  omp::OffloadLoop loop =
      make_reduction_loop(bench.case_id, elements, v, /*unified=*/false,
                          /*managed_alloc=*/0, /*range_offset=*/0);
  if (bench.tuning) loop.strategy = bench.tuning->strategy;
  const omp::TeamsClauses clauses = make_clauses(bench.tuning);

  GpuBenchmarkResult result;
  result.iterations = bench.iterations;
  result.bytes_per_iteration = loop.elements() * spec.element_size;
  const Bytes timed_bytes = repeated(0, bench.iterations,
                                     result.bytes_per_iteration,
                                     "the bytes the timed repetitions move");

  const SimTime t0 = sim.now();
  platform.repeat(bench.iterations, [&] {
    rt.target_update_scalar(nullptr);  // sum = 0; update to(sum)
    platform.run();
    rt.target_teams_reduce(loop, clauses,
                           [&result](const gpu::KernelResult& r) {
                             result.last_kernel_duration = r.duration();
                           });
    platform.run();
    rt.target_update_scalar(nullptr);  // update from(sum)
    platform.run();
  });
  result.elapsed = sim.now() - t0;
  result.bandwidth = achieved_bandwidth(timed_bytes, result.elapsed);
  return result;
}

const char* alloc_site_name(AllocSite site) {
  return site == AllocSite::kA1 ? "A1" : "A2";
}

std::vector<double> paper_cpu_parts() {
  std::vector<double> parts;
  for (int i = 0; i <= 10; ++i) {
    parts.push_back(static_cast<double>(i) / 10.0);
  }
  return parts;
}

const HeteroPoint& HeteroBenchmarkResult::at(double p) const {
  for (const auto& point : points) {
    if (std::fabs(point.cpu_part - p) < 1e-9) return point;
  }
  GHS_REQUIRE(false, "no point at p=" << p);
  return points.front();
}

double HeteroBenchmarkResult::best_speedup_over_gpu_only() const {
  const HeteroPoint& gpu_only = at(0.0);
  double best = 1.0;
  for (const auto& point : points) {
    best = std::max(best, point.bandwidth.bytes_per_second /
                              gpu_only.bandwidth.bytes_per_second);
  }
  return best;
}

HeteroBenchmarkResult run_hetero_benchmark(Platform& platform,
                                           const HeteroBenchmark& bench) {
  const auto& spec = case_spec(bench.case_id);
  const std::int64_t elements =
      bench.elements > 0 ? bench.elements : spec.paper_elements;
  GHS_REQUIRE(!bench.cpu_parts.empty(), "empty p sweep");
  GHS_REQUIRE(bench.iterations > 0, "iterations=" << bench.iterations);
  const int v = bench.tuning ? bench.tuning->v : 1;
  const Bytes total_bytes = elements * spec.element_size;
  const Bytes timed_bytes =
      repeated(0, bench.iterations, total_bytes,
               "the bytes the timed repetitions move");

  auto& rt = platform.runtime();
  auto& um = platform.um();
  auto& sim = platform.sim();

  // A1: the array is allocated (and initialised on the CPU, so pages
  // first-touch in LPDDR) once, before the p sweep.
  std::optional<um::AllocId> a1_alloc;
  if (bench.site == AllocSite::kA1) {
    a1_alloc = um.allocate(total_bytes, mem::RegionId::kLpddr,
                           std::string(spec.name) + "-A1");
    if (bench.read_mostly_advice) um.advise_read_mostly(*a1_alloc);
  }

  HeteroBenchmarkResult result;
  for (double p : bench.cpu_parts) {
    GHS_REQUIRE(p >= 0.0 && p <= 1.0, "cpu part p=" << p);
    // A2: fresh allocation for this p, again first-touched on the CPU.
    um::AllocId alloc;
    if (a1_alloc) {
      alloc = *a1_alloc;
    } else {
      alloc = um.allocate(total_bytes, mem::RegionId::kLpddr,
                          std::string(spec.name) + "-A2");
      if (bench.read_mostly_advice) um.advise_read_mostly(alloc);
    }

    const auto len_h = static_cast<std::int64_t>(
        std::llround(p * static_cast<double>(elements)));
    const std::int64_t len_d = elements - len_h;
    const Bytes offset_d = len_h * spec.element_size;

    // The GPU loop processes len_d elements in len_d / v iterations; any
    // sub-v remainder is dropped from the model (< 32 elements of ~1e9).
    std::optional<omp::OffloadLoop> gpu_loop;
    if (len_d / v > 0) {
      gpu_loop = make_reduction_loop(bench.case_id, len_d, v,
                                     /*unified=*/true, alloc, offset_d);
      if (bench.tuning) gpu_loop->strategy = bench.tuning->strategy;
    }
    std::optional<cpu::CpuReduceRequest> cpu_part;
    if (len_h > 0) {
      cpu::CpuReduceRequest request;
      request.label = std::string(spec.name) + "-host";
      request.elements = len_h;
      request.element_size = spec.element_size;
      request.threads = bench.cpu_threads;
      request.use_simd = bench.cpu_simd;
      request.schedule = bench.cpu_schedule;
      request.managed = true;
      request.managed_alloc = alloc;
      request.range_offset = 0;
      cpu_part = request;
    }
    const omp::TeamsClauses clauses = make_clauses(bench.tuning);

    if (bench.prefetch) {
      // Placement hints before the timed region: device part to HBM, host
      // part to LPDDR. The moves run at migration-engine rate and drain
      // before timing starts (they are setup, like the allocation itself).
      if (len_d > 0) {
        um.prefetch(alloc, offset_d, len_d * spec.element_size,
                    mem::RegionId::kHbm, nullptr);
      }
      if (len_h > 0) {
        um.prefetch(alloc, 0, offset_d, mem::RegionId::kLpddr, nullptr);
      }
      platform.run();
    }

    const auto& um_stats = um.stats();
    const Bytes gpu_remote_before = um_stats.remote_bytes_gpu;
    const Bytes cpu_remote_before = um_stats.remote_bytes_cpu;

    const SimTime t0 = sim.now();
    platform.repeat(bench.iterations, [&] {
      rt.parallel_co_execute(gpu_loop, clauses, cpu_part, nullptr);
      platform.run();
    });
    HeteroPoint point;
    point.cpu_part = p;
    point.elapsed = sim.now() - t0;
    point.bandwidth = achieved_bandwidth(timed_bytes, point.elapsed);
    point.gpu_remote_bytes = um_stats.remote_bytes_gpu - gpu_remote_before;
    point.cpu_remote_bytes = um_stats.remote_bytes_cpu - cpu_remote_before;
    result.points.push_back(point);

    if (!a1_alloc) {
      um.free(alloc);
    }
  }
  return result;
}

}  // namespace ghs::core
