// Timeline capture: run a co-executed reduction with tracing enabled and
// write a Chrome trace-event JSON you can open in chrome://tracing or
// https://ui.perfetto.dev — the simulator's answer to an Nsight Systems
// capture. The timeline makes the UM warm-up visible: the first kernel's
// long fault-migration wave, then the steady-state alternation of GPU
// kernels and CPU reduction slices inside each parallel region.
//
//   $ ./examples/trace_timeline --out=timeline.json
#include <cstdio>
#include <fstream>

#include "ghs/core/reduce.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ghs;
  Cli cli("trace_timeline", "capture a co-execution timeline as JSON");
  const auto* out_path = cli.add_string("out", "timeline.json",
                                        "output file (Chrome trace JSON)");
  const auto* p = cli.add_double("p", 0.3, "CPU fraction of the reduction");
  cli.parse_or_exit(argc, argv);

  trace::Tracer tracer;
  core::Platform platform(core::gh200_config(), {}, &tracer);

  core::HeteroBenchmark bench;
  bench.case_id = workload::CaseId::kC1;
  bench.tuning = core::paper_best_tuning(bench.case_id);
  bench.cpu_parts = {*p};
  bench.elements = 1 << 26;  // 64 M elements keep the trace readable
  bench.iterations = 8;
  const auto result = core::run_hetero_benchmark(platform, bench);

  std::ofstream out(*out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n",
                 out_path->c_str());
    return 1;
  }
  trace::ChromeTraceExporter(tracer).write(out);

  std::printf("co-ran %d iterations at p=%.1f: %.1f GB/s\n",
              bench.iterations, *p, result.points[0].bandwidth.gbps());
  std::printf("wrote %zu trace events to %s\n", tracer.size(),
              out_path->c_str());
  std::printf("open chrome://tracing or https://ui.perfetto.dev and load "
              "the file\n");
  return 0;
}
