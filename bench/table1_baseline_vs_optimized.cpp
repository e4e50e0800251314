// Reproduces Table 1: baseline (Listing 2, runtime-heuristic grid) vs the
// best optimized configuration from the Fig. 1 sweep, with speedup and
// efficiency against the 4022.7 GB/s peak.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "table1_baseline_vs_optimized",
      "Table 1: baseline vs optimized sum reduction on the simulated H100",
      /*default_iterations=*/10);
  const auto options = common.parse(argc, argv);

  core::SweepOptions sweep;
  sweep.config = options.config;
  sweep.iterations = options.iterations;
  sweep.elements = options.elements;
  sweep.telemetry = options.telemetry();

  const auto rows = core::table1(options.cases, sweep);

  stats::Table table({"Case", "Base (GB/s)", "Optimized (GB/s)", "Speedup",
                      "Efficiency (%)", "Best (teams, v)"});
  for (const auto& row : rows) {
    std::string eff = format_fixed(100.0 * row.baseline_efficiency, 1);
    eff += " / ";
    eff += format_fixed(100.0 * row.optimized_efficiency, 1);
    std::string best = std::to_string(row.best.teams);
    best += ", v";
    best += std::to_string(row.best.v);
    table.add_row({workload::case_spec(row.case_id).name,
                   format_fixed(row.baseline_gbps, 0),
                   format_fixed(row.optimized_gbps, 0),
                   format_fixed(row.speedup, 3), eff, best});
  }
  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Table 1 (simulated GH200):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "C1 620/3795 (6.120x, 15.4/94.3%), C2 172/3596 (20.906x, "
        "4.3/89.4%), C3 271/3790 (13.985x, 6.7/94.2%), C4 526/3833 "
        "(7.287x, 13.1/95.3%)");
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("table1_baseline_vs_optimized", error);
}
