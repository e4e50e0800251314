// Ablation: the unified-memory migration policy. Re-runs the optimized
// C1 co-execution sweep (both allocation sites) under fault-eager
// first-touch migration (the GH default the paper observes), delayed
// access-counter migration with several thresholds, and no migration at
// all, reporting the GPU-only level and the best co-run point for each.
// This isolates how much of the A1/A2 story is the migration policy.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_um_policy",
      "Co-execution outcome under alternative UM migration policies",
      /*default_iterations=*/50);
  const auto options = common.parse(argc, argv);

  struct Variant {
    std::string name;
    um::UmPolicy policy;
  };
  std::vector<Variant> variants;
  {
    um::UmPolicy p;  // defaults are the calibrated fault-eager policy
    variants.push_back({"fault-eager (GH default)", p});
  }
  for (int threshold : {4, 16, 64}) {
    um::UmPolicy p;
    p.mode = um::MigrationMode::kAccessCounter;
    p.gpu_access_threshold = threshold;
    std::string name = "access-counter, threshold ";
    name += std::to_string(threshold);
    variants.push_back({name, p});
  }
  {
    um::UmPolicy p;
    p.mode = um::MigrationMode::kNone;
    variants.push_back({"no migration", p});
  }

  stats::Table table({"Case", "Site", "Policy", "GPU-only GB/s",
                      "Best co-run GB/s", "Best speedup"});
  for (workload::CaseId case_id : options.cases) {
    for (core::AllocSite site :
         {core::AllocSite::kA1, core::AllocSite::kA2}) {
      for (const auto& variant : variants) {
        core::UmSweepOptions um_opts;
        um_opts.config = options.config;
        um_opts.site = site;
        um_opts.optimized = true;
        um_opts.iterations = options.iterations;
        um_opts.elements = options.elements;
        um_opts.telemetry = options.telemetry();
        um_opts.config.um = variant.policy;
        const auto result = core::um_sweep_case(case_id, um_opts);
        double best = 0.0;
        for (const auto& point : result.points) {
          best = std::max(best, point.bandwidth.gbps());
        }
        const double gpu_only = result.at(0.0).bandwidth.gbps();
        table.add_row({workload::case_spec(case_id).name,
                       core::alloc_site_name(site), variant.name,
                       format_fixed(gpu_only, 0), format_fixed(best, 0),
                       format_fixed(best / gpu_only, 3)});
      }
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "UM-policy ablation (optimized kernel):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "fault-eager migration + allocation site reproduce the paper's "
        "A1 ~2.48x vs A2 ~1.07x split");
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("ablation_um_policy", error);
}
