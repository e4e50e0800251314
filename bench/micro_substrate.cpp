// google-benchmark micro-suite for the simulation substrate itself: how
// fast the event queue, fluid network, UM page planner, and device models
// execute on the host. These are engineering benchmarks for the simulator
// (not paper artefacts); they catch performance regressions that would
// make the figure benches crawl.
#include <benchmark/benchmark.h>

#include "ghs/core/reduce.hpp"
#include "ghs/core/verify.hpp"
#include "ghs/mem/topology.hpp"
#include "ghs/sim/fluid.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/um/manager.hpp"
#include "ghs/workload/host_array.hpp"

namespace {

using namespace ghs;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < count; ++i) {
      sim.schedule_at(i, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_FluidFairShare(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::FluidNetwork net(sim);
    const auto r = net.add_resource("r", Bandwidth::from_gbps(100.0));
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      sim::FlowSpec spec;
      spec.bytes = 1e9 * (1 + i % 5);
      spec.resources = {r};
      spec.on_complete = [&done] { ++done; };
      net.start_flow(std::move(spec));
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidFairShare)->Arg(8)->Arg(64)->Arg(256);

void BM_UmPlanPass(benchmark::State& state) {
  // One warm fault-eager allocation split the way the Listing 8 loop splits
  // it: the CPU part [0, split) in LPDDR, the GPU part [split, size) already
  // migrated to HBM, the split mid-page. Each iteration plans one GPU and
  // one CPU pass; with an extent page table the cost should not grow with
  // the page count.
  const auto pages = state.range(0);
  sim::Simulator sim;
  mem::Topology topology(sim, mem::TopologyConfig{});
  um::UmManager um(topology, um::UmPolicy{});
  const Bytes size = pages * um.policy().page_size;
  const Bytes split = size / 10 * 3 + 12;
  const auto id = um.allocate(size, mem::RegionId::kLpddr, "bench");
  for (const auto& seg :
       um.plan_pass(id, um::Accessor::kGpu, split, size - split)) {
    if (seg.migrate_on_access) {
      um.complete_segment(id, seg.offset, seg.length, mem::RegionId::kHbm);
    }
  }
  for (auto _ : state) {
    auto gpu = um.plan_pass(id, um::Accessor::kGpu, split, size - split);
    auto cpu = um.plan_pass(id, um::Accessor::kCpu, 0, split);
    benchmark::DoNotOptimize(gpu.data());
    benchmark::DoNotOptimize(cpu.data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_UmPlanPass)->Arg(32)->Arg(512)->Arg(2048)->Arg(4096);

void BM_GpuKernelSimulation(benchmark::State& state) {
  const auto grid = state.range(0);
  for (auto _ : state) {
    core::Platform platform;
    core::GpuBenchmark bench;
    bench.case_id = workload::CaseId::kC1;
    bench.tuning = core::ReduceTuning{grid, 256, 4};
    bench.elements = 1 << 24;
    bench.iterations = 1;
    const auto result = core::run_gpu_benchmark(platform, bench);
    benchmark::DoNotOptimize(result.elapsed);
  }
}
BENCHMARK(BM_GpuKernelSimulation)->Arg(1024)->Arg(16384)->Arg(65536);

void BM_BaselineKernelSimulation(benchmark::State& state) {
  // The heuristic grid for 2^24 elements is 131072 CTAs: exercises the
  // wave executor's many-wave path.
  for (auto _ : state) {
    core::Platform platform;
    core::GpuBenchmark bench;
    bench.case_id = workload::CaseId::kC1;
    bench.elements = 1 << 24;
    bench.iterations = 1;
    const auto result = core::run_gpu_benchmark(platform, bench);
    benchmark::DoNotOptimize(result.elapsed);
  }
}
BENCHMARK(BM_BaselineKernelSimulation);

void BM_UmSweepPoint(benchmark::State& state) {
  for (auto _ : state) {
    core::Platform platform;
    core::HeteroBenchmark bench;
    bench.case_id = workload::CaseId::kC1;
    bench.cpu_parts = {0.5};
    bench.elements = 1 << 24;
    bench.iterations = 5;
    const auto result = core::run_hetero_benchmark(platform, bench);
    benchmark::DoNotOptimize(result.points[0].elapsed);
  }
}
BENCHMARK(BM_UmSweepPoint);

void BM_HostReferenceSum(benchmark::State& state) {
  const auto case_id = static_cast<workload::CaseId>(state.range(0));
  const auto input = workload::HostArray::make(
      case_id, 1 << 20, workload::Pattern::kUniform, 42);
  for (auto _ : state) {
    const auto sum = input.serial_sum();
    benchmark::DoNotOptimize(sum.i + static_cast<std::int64_t>(sum.d));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_HostReferenceSum)->DenseRange(0, 3);

void BM_ChunkedVerification(benchmark::State& state) {
  const auto input = workload::HostArray::make(
      workload::CaseId::kC3, 1 << 20, workload::Pattern::kUniform, 42);
  for (auto _ : state) {
    const auto report = core::verify_gpu_reduction(input, 4096, 1e-3);
    benchmark::DoNotOptimize(report.ok);
  }
}
BENCHMARK(BM_ChunkedVerification);

}  // namespace

BENCHMARK_MAIN();
