#include "um_bench.hpp"

#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/chart.hpp"

namespace ghs::bench {

namespace {

core::UmSweepOptions to_um_options(const CommonOptions& options,
                                   core::AllocSite site, bool optimized) {
  core::UmSweepOptions um;
  um.config = options.config;
  um.site = site;
  um.optimized = optimized;
  um.iterations = options.iterations;
  um.elements = options.elements;
  um.telemetry = options.telemetry();
  return um;
}

}  // namespace

int run_um_figure(const std::string& program, const std::string& figure_name,
                  core::AllocSite site, bool optimized,
                  const std::string& paper_note, int argc,
                  const char* const* argv) try {
  CommonCli common(program,
                   figure_name + ": UM co-execution bandwidth vs CPU part",
                   /*default_iterations=*/200);
  const auto* chart = common.cli().add_flag("chart", "render an ASCII chart");
  const auto options = common.parse(argc, argv);

  const auto figure =
      core::um_figure(options.cases, to_um_options(options, site, optimized));
  if (options.csv) {
    figure.render_csv(std::cout);
  } else {
    std::cout << figure_name << ":\n";
    figure.render(std::cout);
    if (*chart) {
      stats::render_chart(figure, std::cout);
    }
    print_paper_reference(options.csv, paper_note);
  }
  common.write_metrics(options);
  return 0;
} catch (const OverflowError& error) {
  return iterations_overflow(program, error);
}

int run_um_speedup(const std::string& program,
                   const std::string& figure_name, core::AllocSite site,
                   const std::string& paper_note, int argc,
                   const char* const* argv) try {
  CommonCli common(program,
                   figure_name + ": optimized-over-baseline speedup vs CPU "
                                 "part in UM mode",
                   /*default_iterations=*/200);
  const auto options = common.parse(argc, argv);

  const auto baseline = core::um_figure(
      options.cases, to_um_options(options, site, /*optimized=*/false));
  const auto optimized = core::um_figure(
      options.cases, to_um_options(options, site, /*optimized=*/true));
  const auto ratio = core::speedup_figure(baseline, optimized, figure_name);
  if (options.csv) {
    ratio.render_csv(std::cout);
  } else {
    std::cout << figure_name << ":\n";
    ratio.render(std::cout);
    print_paper_reference(options.csv, paper_note);
  }
  common.write_metrics(options);
  return 0;
} catch (const OverflowError& error) {
  return iterations_overflow(program, error);
}

}  // namespace ghs::bench
