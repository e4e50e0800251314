// Reproduces Fig. 1a-1d: GPU-only reduction bandwidth as a function of the
// number of teams (x) and the number of elements added per loop iteration
// (one series per V), for each evaluation case, in explicit-map mode with
// thread_limit 256 — the paper's Section III.C parameter sweep.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/chart.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "fig1_gpu_sweep",
      "Fig.1: bandwidth vs teams x V sweep on the simulated H100",
      /*default_iterations=*/25);
  const auto* thread_limit =
      common.cli().add_int("thread-limit", 256, "OpenMP thread_limit");
  const auto* chart = common.cli().add_flag("chart", "render an ASCII chart");
  const auto options = common.parse(argc, argv);

  core::SweepOptions sweep;
  sweep.config = options.config;
  sweep.iterations = options.iterations;
  sweep.elements = options.elements;
  sweep.thread_limit = static_cast<int>(*thread_limit);
  sweep.telemetry = options.telemetry();

  const char* figure_ids[] = {"1a", "1b", "1c", "1d"};
  for (workload::CaseId case_id : options.cases) {
    const auto figure = core::fig1_sweep(case_id, sweep);
    if (options.csv) {
      figure.render_csv(std::cout);
    } else {
      std::cout << "Fig. "
                << figure_ids[static_cast<int>(case_id)] << ":\n";
      figure.render(std::cout);
      if (*chart) {
        stats::ChartOptions chart_options;
        chart_options.log_x = true;  // the teams axis is powers of two
        stats::render_chart(figure, std::cout, chart_options);
      }
    }
    switch (case_id) {
      case workload::CaseId::kC1:
        bench::print_paper_reference(
            options.csv,
            "C1 saturates near 4096 teams; best bandwidth 3795 GB/s");
        break;
      case workload::CaseId::kC2:
        bench::print_paper_reference(
            options.csv,
            "C2 saturates near 32768 teams; best bandwidth 3596 GB/s");
        break;
      case workload::CaseId::kC3:
        bench::print_paper_reference(
            options.csv,
            "C3 saturates near 4096 teams; best bandwidth 3790 GB/s");
        break;
      case workload::CaseId::kC4:
        bench::print_paper_reference(
            options.csv,
            "C4 saturates near 4096 teams; best bandwidth 3833 GB/s");
        break;
    }
    std::cout << "\n";
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("fig1_gpu_sweep", error);
}
