// Reproduces the prose statistics of Section IV.B: average best co-run
// speedups over GPU-only execution for both allocation sites, the
// A1-over-A2 co-run ratio, the CPU-only A1 penalty, and the Fig. 3/5
// speedup ranges. Runs all four UM sweeps for every selected case.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ghs;
  bench::CommonCli common(
      "summary_stats",
      "Section IV.B prose statistics from the four UM co-execution sweeps",
      /*default_iterations=*/200);
  const auto options = common.parse(argc, argv);

  core::UmSweepOptions um;
  um.config = options.config;
  um.iterations = options.iterations;
  um.elements = options.elements;
  um.telemetry = options.telemetry();
  const auto set = core::run_um_experiments(options.cases, um);
  const auto s = core::summarize_corun(set);

  stats::Table table({"Statistic", "Simulated", "Paper"});
  table.add_row({"avg best co-run speedup, baseline A1",
                 format_fixed(s.avg_best_speedup_baseline_a1, 3), "2.492"});
  table.add_row({"avg best co-run speedup, optimized A1",
                 format_fixed(s.avg_best_speedup_optimized_a1, 3), "2.484"});
  table.add_row({"avg best co-run speedup, baseline A2",
                 format_fixed(s.avg_best_speedup_baseline_a2, 3), "-"});
  table.add_row({"avg best co-run speedup, optimized A2",
                 format_fixed(s.avg_best_speedup_optimized_a2, 3), "1.067"});
  table.add_row({"optimized co-run, A1 over A2",
                 format_fixed(s.a1_over_a2_optimized, 3), "2.299"});
  table.add_row({"CPU-only, A2 over A1",
                 format_fixed(s.cpu_only_a2_over_a1, 3), "1.367"});
  table.add_row({"Fig.3 speedup min", format_fixed(s.fig3_speedup_min, 3),
                 "0.996"});
  table.add_row({"Fig.3 speedup max", format_fixed(s.fig3_speedup_max, 3),
                 "10.654"});
  table.add_row({"Fig.5 speedup min", format_fixed(s.fig5_speedup_min, 3),
                 "0.998"});
  table.add_row({"Fig.5 speedup max", format_fixed(s.fig5_speedup_max, 3),
                 "6.729"});

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Section IV.B summary statistics:\n";
    table.render(std::cout);
  }
  bench::write_metrics(options);
  return 0;
}
