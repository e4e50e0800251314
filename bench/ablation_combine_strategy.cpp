// Ablation: the reduction-combine path. The baseline's per-CTA combine
// (one serialized atomic per team to the reduction variable) is what makes
// huge heuristic grids catastrophic — and why the four cases separate
// (native int vs widening int vs float CAS-loop). This bench re-runs the
// baseline under three combine models: the calibrated vendor costs, an
// all-CAS runtime (every type pays the float-CAS price), and a
// device-side tree combine (near-free per CTA, as a second-kernel
// reduction would behave).
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_combine_strategy",
      "Baseline bandwidth under alternative reduction-combine models",
      /*default_iterations=*/5);
  const auto options = common.parse(argc, argv);

  struct Variant {
    std::string name;
    core::SystemConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"calibrated vendor combine", options.config});
  {
    core::SystemConfig all_cas = core::gh200_config();
    all_cas.gpu.combine_native_int = all_cas.gpu.combine_float64_cas;
    all_cas.gpu.combine_widening_int = all_cas.gpu.combine_float64_cas;
    variants.push_back({"all-CAS combine", all_cas});
  }
  {
    core::SystemConfig tree = core::gh200_config();
    tree.gpu.combine_native_int = from_nanoseconds(0.05);
    tree.gpu.combine_widening_int = from_nanoseconds(0.05);
    tree.gpu.combine_float32_cas = from_nanoseconds(0.05);
    tree.gpu.combine_float64_cas = from_nanoseconds(0.05);
    variants.push_back({"device tree combine (second kernel)", tree});
  }

  stats::Table table({"Case", "Combine model", "Baseline GB/s"});
  for (workload::CaseId case_id : options.cases) {
    for (const auto& variant : variants) {
      core::Platform platform(variant.config);
      platform.set_telemetry(options.telemetry());
      core::GpuBenchmark bench;
      bench.case_id = case_id;
      bench.tuning = std::nullopt;  // the Listing 2 baseline
      bench.elements = options.elements;
      bench.iterations = options.iterations;
      const auto result = core::run_gpu_benchmark(platform, bench);
      table.add_row({workload::case_spec(case_id).name, variant.name,
                     format_fixed(result.bandwidth.gbps(), 0)});
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Combine-strategy ablation (baseline kernel, heuristic "
                 "grid):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "per-type combine costs explain the baseline spread 620 / 172 / "
        "271 / 526 GB/s");
  }
  bench::write_metrics(options);
  return 0;
}
