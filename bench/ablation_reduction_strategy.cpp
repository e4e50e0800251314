// Extension bench: the reduction-abstraction comparison the paper's
// conclusion defers to future work. Runs each case's *baseline-shaped*
// kernel (heuristic grid) and the optimized kernel under three combine
// strategies: the vendor's shared-memory tree + per-CTA atomic, a warp-
// shuffle + per-warp atomic, and a two-kernel (partials + fold) scheme.
// With huge heuristic grids the per-CTA/warp combine serializes and the
// two-kernel scheme wins; at tuned grids all three tie — quantifying how
// much of the "abstraction" question is really the grid-geometry question.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_reduction_strategy",
      "Baseline and tuned kernels under three combine abstractions",
      /*default_iterations=*/5);
  const auto options = common.parse(argc, argv);

  const gpu::CombineStrategy strategies[] = {
      gpu::CombineStrategy::kAtomicPerCta,
      gpu::CombineStrategy::kAtomicPerWarp,
      gpu::CombineStrategy::kTwoKernel,
  };

  stats::Table table({"Case", "Strategy", "Heuristic grid GB/s",
                      "Tuned grid GB/s"});
  for (workload::CaseId case_id : options.cases) {
    const auto& spec = workload::case_spec(case_id);
    const std::int64_t elements =
        options.elements > 0 ? options.elements : spec.paper_elements;
    for (auto strategy : strategies) {
      // Baseline shape (v=1, 128 threads) under the heuristic grid, with
      // the strategy swapped in.
      double heuristic_gbps;
      {
        core::Platform platform(options.config, options.telemetry());
        const std::int64_t grid = platform.runtime().default_grid(elements);
        core::GpuBenchmark bench;
        bench.case_id = case_id;
        bench.tuning = core::ReduceTuning{grid, 128, 1, strategy};
        bench.elements = elements;
        bench.iterations = options.iterations;
        heuristic_gbps =
            core::run_gpu_benchmark(platform, bench).bandwidth.gbps();
      }
      double tuned_gbps;
      {
        core::Platform platform(options.config, options.telemetry());
        core::ReduceTuning tuning = core::paper_best_tuning(case_id);
        tuning.strategy = strategy;
        core::GpuBenchmark bench;
        bench.case_id = case_id;
        bench.tuning = tuning;
        bench.elements = elements;
        bench.iterations = options.iterations;
        tuned_gbps =
            core::run_gpu_benchmark(platform, bench).bandwidth.gbps();
      }
      table.add_row({spec.name, gpu::combine_strategy_name(strategy),
                     format_fixed(heuristic_gbps, 0),
                     format_fixed(tuned_gbps, 0)});
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Reduction-strategy ablation:\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "future-work extension: abstraction choice matters only when the "
        "grid heuristic over-decomposes");
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("ablation_reduction_strategy", error);
}
