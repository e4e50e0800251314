// Ablation: the thread_limit dimension the paper collapses. Section III.C
// notes "the parameter search space may be reduced by setting the OpenMP
// thread limit to 256"; this bench sweeps thread_limit x teams for each
// case and shows the 256 column sitting on the plateau — i.e. fixing it
// loses nothing, which is exactly why the paper could drop the dimension.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/series.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_thread_limit",
      "Bandwidth vs thread_limit: justifying the paper's fixed 256",
      /*default_iterations=*/5);
  const auto* v_opt = common.cli().add_int("v", 4, "elements per iteration");
  const auto options = common.parse(argc, argv);

  for (workload::CaseId case_id : options.cases) {
    const auto& spec = workload::case_spec(case_id);
    stats::Figure figure(std::string("thread_limit sweep, ") + spec.name,
                         "teams", "bandwidth GB/s");
    for (int thread_limit : {64, 128, 256, 512, 1024}) {
      auto& series =
          figure.add_series("T" + std::to_string(thread_limit));
      for (std::int64_t teams : {1024LL, 4096LL, 16384LL, 65536LL}) {
        core::Platform platform(options.config, options.telemetry());
        core::GpuBenchmark bench;
        bench.case_id = case_id;
        bench.tuning = core::ReduceTuning{teams, thread_limit,
                                          static_cast<int>(*v_opt)};
        bench.elements = options.elements;
        bench.iterations = options.iterations;
        series.add(static_cast<double>(teams),
                   core::run_gpu_benchmark(platform, bench).bandwidth.gbps());
      }
    }
    if (options.csv) {
      figure.render_csv(std::cout);
    } else {
      figure.render(std::cout);
      bench::print_paper_reference(
          options.csv,
          "the paper fixes thread_limit at 256 to shrink the search space");
      std::cout << "\n";
    }
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("ablation_thread_limit", error);
}
