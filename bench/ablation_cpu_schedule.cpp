// Extension bench: the host-side loop schedule under co-execution. The
// paper's Listing 7 uses the default static schedule; related work ([34],
// dynamic scheduling with unified shared memory) motivates asking whether
// rebalancing helps when the CPU's share of a UM array mixes LPDDR- and
// HBM-resident pages (exactly the A1 situation at p > 0). Sweeps the A1
// optimized co-execution under static/dynamic/guided host schedules.
#include <iostream>

#include "common.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/cpu/device.hpp"
#include "ghs/stats/table.hpp"
#include "ghs/util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace ghs;
  bench::CommonCli common(
      "ablation_cpu_schedule",
      "A1 optimized co-execution under host loop schedules",
      /*default_iterations=*/100);
  const auto options = common.parse(argc, argv);

  // The stock HeteroBenchmark fixes the schedule at static; rebuild the
  // CPU-relevant portion of the sweep here with the schedule swapped in.
  stats::Table table({"Case", "Schedule", "CPU-only GB/s (mixed pages)",
                      "CPU-only GB/s (local pages)"});
  for (workload::CaseId case_id : options.cases) {
    const auto& spec = workload::case_spec(case_id);
    const std::int64_t elements =
        options.elements > 0 ? options.elements : spec.paper_elements;
    const Bytes bytes = elements * spec.element_size;
    for (auto schedule : {cpu::ScheduleKind::kStatic,
                          cpu::ScheduleKind::kDynamic,
                          cpu::ScheduleKind::kGuided}) {
      const auto run_cpu = [&](bool mixed) {
        core::Platform platform(options.config, options.telemetry());
        auto alloc = platform.um().allocate(bytes, mem::RegionId::kLpddr,
                                            spec.name);
        if (mixed) {
          // Second half stranded in HBM, as after an A1 p-sweep prefix.
          platform.um().complete_segment(alloc, bytes / 2, bytes - bytes / 2,
                                         mem::RegionId::kHbm);
        }
        cpu::CpuReduceRequest request;
        request.label = spec.name;
        request.elements = elements;
        request.element_size = spec.element_size;
        request.threads = 72;
        request.managed = true;
        request.managed_alloc = alloc;
        request.schedule = schedule;
        double gbps = 0.0;
        platform.cpu().reduce(request,
                              [&](const cpu::CpuReduceResult& r) {
                                gbps = r.bandwidth().gbps();
                              });
        platform.run();
        return gbps;
      };
      table.add_row({spec.name, cpu::schedule_name(schedule),
                     format_fixed(run_cpu(true), 0),
                     format_fixed(run_cpu(false), 0)});
    }
  }

  if (options.csv) {
    table.render_csv(std::cout);
  } else {
    std::cout << "Host-schedule ablation (managed input):\n";
    table.render(std::cout);
    bench::print_paper_reference(
        options.csv,
        "extension: dynamic scheduling removes the static schedule's "
        "stragglers on mixed-residency ranges");
  }
  common.write_metrics(options);
  return 0;
} catch (const ghs::OverflowError& error) {
  return ghs::bench::iterations_overflow("ablation_cpu_schedule", error);
}
