// Ablation: how much of the baseline's slowness is the runtime's grid
// heuristic? Runs the baseline-shaped kernel (v = 1, 128 threads) under
// the NVHPC heuristic grid (M/128, clamped to 0xFFFFFF), several fixed
// grids, and an occupancy-derived grid, for each case. Section III.C's
// conclusion — "the heuristics may be further optimized in the vendor's
// implementation" — is quantified here.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/omp/heuristics.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_grid_heuristic",
      "Baseline bandwidth under alternative grid-geometry heuristics",
      /*default_iterations=*/5);
  const auto options = common.parse(argc, argv);

  const core::SystemConfig& config = options.config;
  stats::Table table({"Case", "Grid policy", "Grid", "GB/s"});

  for (workload::CaseId case_id : options.cases) {
    const auto& spec = workload::case_spec(case_id);
    const std::int64_t elements =
        options.elements > 0 ? options.elements : spec.paper_elements;

    struct Policy {
      std::string name;
      std::int64_t grid;
    };
    std::vector<Policy> policies;
    policies.push_back(
        {"NVHPC heuristic (M/128, clamp 0xFFFFFF)",
         omp::heuristic_grid(config.omp.heuristic, elements)});
    policies.push_back(
        {"occupancy x1 (132 SMs x 16 CTAs)", omp::occupancy_grid(132, 16, 1)});
    policies.push_back(
        {"occupancy x8", omp::occupancy_grid(132, 16, 8)});
    policies.push_back({"fixed 65536", 65536});
    policies.push_back({"fixed 1048576", 1 << 20});

    for (const auto& policy : policies) {
      core::Platform platform(config);
      platform.set_telemetry(options.telemetry());
      core::GpuBenchmark bench;
      bench.case_id = case_id;
      // v = 1 with teams == grid reproduces the baseline loop body under a
      // chosen grid; thread_limit 128 matches the heuristic's default team.
      bench.tuning = core::ReduceTuning{policy.grid, 128, 1};
      bench.elements = elements;
      bench.iterations = options.iterations;
      const auto result = core::run_gpu_benchmark(platform, bench);
      table.add_row({spec.name, policy.name, std::to_string(policy.grid),
                     format_fixed(result.bandwidth.gbps(), 0)});
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Grid-heuristic ablation (baseline loop body, v=1):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "the NVHPC heuristic grid leaves 6.1x-20.9x on the table vs tuned "
        "geometry (Table 1)");
  }
  bench::write_metrics(options);
  return 0;
}
