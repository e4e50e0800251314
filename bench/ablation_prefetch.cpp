// Extension bench: does explicit placement (cudaMemPrefetchAsync-style
// hints, which the paper's §IV.A notes the OpenMP runtime may derive from
// map clauses) repair the A2 allocation site? Compares, per case:
//   A1            — the paper's warm path,
//   A2            — the paper's cold path,
//   A2 + prefetch — fresh allocation but with the GPU part prefetched to
//                   HBM and the CPU part pinned in LPDDR before timing.
// Prefetching also removes the CPU-remote penalty A1 suffers at large p.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_prefetch",
      "A1 vs A2 vs A2+prefetch for the optimized UM co-execution",
      /*default_iterations=*/100);
  const auto options = common.parse(argc, argv);

  struct Variant {
    std::string name;
    core::AllocSite site;
    bool prefetch;
    bool read_mostly;
  };
  const Variant variants[] = {
      {"A1", core::AllocSite::kA1, false, false},
      {"A2", core::AllocSite::kA2, false, false},
      {"A2 + prefetch", core::AllocSite::kA2, true, false},
      {"A1 + prefetch", core::AllocSite::kA1, true, false},
      {"A1 + read-mostly", core::AllocSite::kA1, false, true},
      {"A2 + read-mostly", core::AllocSite::kA2, false, true},
  };

  stats::Table table({"Case", "Variant", "GPU-only GB/s", "Best co-run GB/s",
                      "Best p", "CPU-only GB/s"});
  for (workload::CaseId case_id : options.cases) {
    for (const auto& variant : variants) {
      core::Platform platform(options.config, options.telemetry());
      core::HeteroBenchmark bench;
      bench.case_id = case_id;
      bench.tuning = core::paper_best_tuning(case_id);
      bench.site = variant.site;
      bench.prefetch = variant.prefetch;
      bench.read_mostly_advice = variant.read_mostly;
      bench.cpu_parts = core::paper_cpu_parts();
      bench.elements = options.elements;
      bench.iterations = options.iterations;
      const auto result = core::run_hetero_benchmark(platform, bench);
      double best = 0.0;
      double best_p = 0.0;
      for (const auto& point : result.points) {
        if (point.bandwidth.gbps() > best) {
          best = point.bandwidth.gbps();
          best_p = point.cpu_part;
        }
      }
      table.add_row({workload::case_spec(case_id).name, variant.name,
                     format_fixed(result.at(0.0).bandwidth.gbps(), 0),
                     format_fixed(best, 0), format_fixed(best_p, 1),
                     format_fixed(result.at(1.0).bandwidth.gbps(), 0)});
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Prefetch ablation (optimized kernel, UM mode):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "extension beyond the paper: explicit placement recovers the A1 "
        "benefit at A2 and fixes A1's CPU-only penalty");
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("ablation_prefetch", error);
}
