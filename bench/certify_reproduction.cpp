// Reproduction certification: runs the paper's headline experiments end to
// end and grades every published number against the simulation with
// explicit tolerances — PASS (within band), SHAPE (right ordering/shape,
// quantitative gap documented in EXPERIMENTS.md), FAIL otherwise. Exits
// non-zero if any PASS-graded metric regresses, making this binary a
// one-shot reproduction gate for CI.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

namespace {

struct Check {
  std::string metric;
  double simulated;
  double paper;
  double tolerance;  // relative; 0 = shape-graded
  bool shape_only = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ghs;
  bench::CommonCli common(
      "certify_reproduction",
      "grade the full reproduction against the paper's numbers",
      /*default_iterations=*/200);
  const auto options = common.parse(argc, argv);

  std::vector<Check> checks;

  // --- Table 1 ------------------------------------------------------------
  {
    core::SweepOptions sweep;
    sweep.iterations = 5;  // repetition-insensitive metric
    sweep.elements = options.elements;
    sweep.telemetry = options.telemetry();
    const auto rows = core::table1(workload::all_cases(), sweep);
    const double paper_base[] = {620, 172, 271, 526};
    const double paper_opt[] = {3795, 3596, 3790, 3833};
    const double paper_speedup[] = {6.120, 20.906, 13.985, 7.287};
    for (const auto& row : rows) {
      const auto c = static_cast<std::size_t>(row.case_id);
      const std::string name = workload::case_spec(row.case_id).name;
      checks.push_back({"Table1 " + name + " baseline GB/s",
                        row.baseline_gbps, paper_base[c], 0.05});
      checks.push_back({"Table1 " + name + " optimized GB/s",
                        row.optimized_gbps, paper_opt[c], 0.05});
      checks.push_back({"Table1 " + name + " speedup", row.speedup,
                        paper_speedup[c], 0.05});
    }
  }

  // --- Section IV (UM co-execution) ----------------------------------------
  {
    core::UmSweepOptions um;
    um.iterations = options.iterations;
    um.elements = options.elements;
    um.telemetry = options.telemetry();
    const auto set = core::run_um_experiments(options.cases, um);
    const auto s = core::summarize_corun(set);
    checks.push_back({"IV.B avg best co-run speedup, baseline A1",
                      s.avg_best_speedup_baseline_a1, 2.492, 0.15});
    checks.push_back({"IV.B avg best co-run speedup, optimized A1",
                      s.avg_best_speedup_optimized_a1, 2.484, 0.15});
    checks.push_back({"IV.B avg best co-run speedup, optimized A2",
                      s.avg_best_speedup_optimized_a2, 1.067, 0.10});
    checks.push_back({"IV.B optimized co-run A1/A2", s.a1_over_a2_optimized,
                      2.299, 0.10});
    checks.push_back({"IV.B CPU-only A2/A1", s.cpu_only_a2_over_a1, 1.367,
                      0.05});
    checks.push_back({"Fig.3 max speedup", s.fig3_speedup_max, 10.654, 0.0,
                      true});
    checks.push_back({"Fig.5 max speedup", s.fig5_speedup_max, 6.729, 0.0,
                      true});
    checks.push_back({"Fig.3 min speedup", s.fig3_speedup_min, 0.996, 0.05});
    checks.push_back({"Fig.5 min speedup", s.fig5_speedup_min, 0.998, 0.05});
  }

  stats::Table table({"Metric", "Simulated", "Paper", "Verdict"});
  int failures = 0;
  for (const auto& check : checks) {
    std::string verdict;
    if (check.shape_only) {
      // Shape-graded: same order of magnitude and same side of 1.
      const bool ok = check.simulated > 1.0 &&
                      check.simulated < 3.0 * check.paper;
      verdict = ok ? "SHAPE" : "FAIL";
      if (!ok) ++failures;
    } else {
      const double rel =
          std::abs(check.simulated - check.paper) / check.paper;
      if (rel <= check.tolerance) {
        verdict = "PASS";
      } else {
        verdict = "FAIL (" + format_fixed(100.0 * rel, 1) + "% off)";
        ++failures;
      }
    }
    table.add_row({check.metric, format_fixed(check.simulated, 3),
                   format_fixed(check.paper, 3), verdict});
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Reproduction certification (tolerances in "
                 "EXPERIMENTS.md):\n";
    table.render(std::cout);
    std::cout << (failures == 0 ? "CERTIFIED: all graded metrics in band\n"
                                : "FAILED: see verdicts above\n");
  }
  bench::write_metrics(options);
  return failures == 0 ? 0 : 1;
}
