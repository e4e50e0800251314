// Platform::repeat's fast-forward: once a protocol repetition leaves the
// platform's digest as it found it, the rest are skipped and every count is
// advanced instead.
//
// The property test draws substrate runs (explicit-map and Listing 8 UM
// runs under every migration policy, threshold, site, advice and combine
// strategy, N from 1 to 64) and runs each twice: bare, which may skip, and
// with a flight recorder attached, which simulates every repetition. Every
// result field, the clock, the event count, the next FlowId, the UM and
// GPU stats, the combine unit and the telemetry snapshot must match bit
// for bit.
//
// The engagement test pins how many repetitions the paper's protocols
// simulate and skip, so a change that breaks the fixed point fails here
// instead of only slowing the benches down.
#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/core/platform.hpp"
#include "ghs/core/reduce.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/core/system_config.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::core {
namespace {

using workload::CaseId;

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return values.begin()[rng.next_below(values.size())];
}

CaseId draw_case(Rng& rng) {
  return pick(rng, {CaseId::kC1, CaseId::kC2, CaseId::kC3, CaseId::kC4});
}

std::optional<ReduceTuning> draw_tuning(Rng& rng) {
  if (rng.next_below(3) == 0) return std::nullopt;  // the baseline kernel
  ReduceTuning t;
  t.v = pick(rng, {1, 2, 4, 8, 16, 32});
  t.teams = t.v * pick<std::int64_t>(rng, {1, 7, 64, 512, 4096, 16384});
  t.thread_limit = pick(rng, {64, 128, 256, 1024});
  t.strategy = pick(rng, {gpu::CombineStrategy::kAtomicPerCta,
                          gpu::CombineStrategy::kAtomicPerWarp,
                          gpu::CombineStrategy::kTwoKernel});
  return t;
}

SystemConfig draw_config(Rng& rng) {
  SystemConfig c = gh200_config();
  c.um.page_size = pick<Bytes>(rng, {64 * kKiB, 512 * kKiB, 2 * kMiB});
  c.um.mode =
      pick(rng, {um::MigrationMode::kNone, um::MigrationMode::kFaultEager,
                 um::MigrationMode::kAccessCounter});
  // Thresholds above 1 keep the counters moving for several repetitions
  // before the state repeats.
  c.um.gpu_access_threshold = 1 + static_cast<int>(rng.next_below(20));
  c.um.cpu_access_threshold = pick(rng, {0, 0, 1, 2, 5});
  return c;
}

/// Everything a run reports or leaves behind, as text.
struct Outcome {
  std::string text;
  std::int64_t simulated = 0;
  std::int64_t skipped = 0;
};

std::string snapshot(Platform& p, const telemetry::Registry& registry) {
  std::ostringstream os;
  const um::UmStats& u = p.um().stats();
  const gpu::GpuDeviceStats& g = p.gpu().stats();
  const sim::SerialServer& combine = p.gpu().combine_unit();
  os << "now=" << p.sim().now() << " events=" << p.sim().events_processed()
     << " peak_queue=" << p.sim().peak_queue_size()
     << " flows=" << p.topology().network().active_flows()
     << " next_flow=" << p.topology().network().mark().next_id << "\n"
     << "um fault=" << u.fault_migrations << " counter="
     << u.counter_migrations << " to_hbm=" << u.bytes_migrated_to_hbm
     << " to_lpddr=" << u.bytes_migrated_to_lpddr
     << " remote_gpu=" << u.remote_bytes_gpu
     << " remote_cpu=" << u.remote_bytes_cpu
     << " duplicated=" << u.bytes_duplicated << "\n"
     << "gpu kernels=" << g.kernels_launched << " waves=" << g.waves_executed
     << " busy=" << p.gpu().busy()
     << " combine_available_at=" << combine.available_at()
     << " combine_busy=" << combine.busy_time()
     << " combine_completed=" << combine.completed() << "\n";
  telemetry::write_json_snapshot(os, registry);
  return os.str();
}

/// Runs draw `seed` on a fresh platform; `full` attaches a flight recorder,
/// which makes the platform simulate every repetition.
Outcome run_draw(std::uint64_t seed, bool full) {
  Rng rng(seed);
  const SystemConfig config = draw_config(rng);
  telemetry::Registry registry;
  telemetry::FlightRecorder flight(64);
  Platform platform(config, {&registry, full ? &flight : nullptr});
  const CaseId case_id = draw_case(rng);
  const auto elements =
      static_cast<std::int64_t>(1 + rng.next_below(std::int64_t{1} << 22));
  const int iterations = 1 + static_cast<int>(rng.next_below(64));
  std::optional<ReduceTuning> tuning = draw_tuning(rng);
  if (tuning && tuning->v > elements) tuning->v = 1;
  std::ostringstream os;
  os.precision(17);
  if (rng.next_below(4) == 0) {
    GpuBenchmark bench;
    bench.case_id = case_id;
    bench.tuning = tuning;
    bench.elements = elements;
    bench.iterations = iterations;
    const GpuBenchmarkResult r = run_gpu_benchmark(platform, bench);
    os << "explicit elapsed=" << r.elapsed
       << " gbps=" << r.bandwidth.bytes_per_second
       << " iterations=" << r.iterations
       << " bytes=" << r.bytes_per_iteration
       << " last_kernel=" << r.last_kernel_duration << "\n";
  } else {
    HeteroBenchmark bench;
    bench.case_id = case_id;
    bench.tuning = tuning;
    bench.site = pick(rng, {AllocSite::kA1, AllocSite::kA2});
    for (std::uint64_t n = 1 + rng.next_below(4); n > 0; --n) {
      bench.cpu_parts.push_back(
          rng.next_below(3) == 0
              ? rng.next_double()
              : static_cast<double>(rng.next_below(11)) / 10.0);
    }
    bench.elements = std::max<std::int64_t>(elements, 64);
    bench.iterations = iterations;
    bench.cpu_threads = 1 + static_cast<int>(rng.next_below(72));
    bench.cpu_simd = rng.next_below(2) == 0;
    bench.cpu_schedule =
        pick(rng, {cpu::ScheduleKind::kStatic, cpu::ScheduleKind::kDynamic,
                   cpu::ScheduleKind::kGuided});
    bench.prefetch = rng.next_below(4) == 0;
    bench.read_mostly_advice = rng.next_below(4) == 0;
    const HeteroBenchmarkResult r = run_hetero_benchmark(platform, bench);
    for (const HeteroPoint& point : r.points) {
      os << "p=" << point.cpu_part << " elapsed=" << point.elapsed
         << " gbps=" << point.bandwidth.bytes_per_second
         << " gpu_remote=" << point.gpu_remote_bytes
         << " cpu_remote=" << point.cpu_remote_bytes << "\n";
    }
  }
  return {os.str() + snapshot(platform, registry),
          platform.repetitions_simulated(), platform.repetitions_skipped()};
}

TEST(FastForwardPropertyTest, SkippedRepetitionsMatchTheFullPathBitForBit) {
  std::int64_t skipped = 0;
  int draws_that_skipped = 0;
  constexpr std::uint64_t kDraws = 150;
  for (std::uint64_t seed = 1; seed <= kDraws; ++seed) {
    const Outcome fast = run_draw(seed, /*full=*/false);
    const Outcome full = run_draw(seed, /*full=*/true);
    ASSERT_EQ(fast.text, full.text) << "seed " << seed;
    EXPECT_EQ(full.skipped, 0) << "seed " << seed;
    EXPECT_EQ(fast.simulated + fast.skipped, full.simulated)
        << "seed " << seed;
    skipped += fast.skipped;
    draws_that_skipped += fast.skipped > 0 ? 1 : 0;
  }
  // The draws exercise the skip, not just the full path.
  EXPECT_GT(draws_that_skipped, static_cast<int>(kDraws) / 2);
  EXPECT_GT(skipped, 1000);
}

// ---------------------------------------------------------------------------
// Engagement: repetitions simulated and skipped by the paper's protocols.
// ---------------------------------------------------------------------------

struct Counts {
  std::int64_t simulated = 0;
  std::int64_t skipped = 0;
};

Counts um_sweep_counts(CaseId case_id, AllocSite site, bool optimized,
                       int iterations, const SystemConfig& config) {
  Platform platform(config);
  HeteroBenchmark bench;
  bench.case_id = case_id;
  if (optimized) bench.tuning = paper_best_tuning(case_id);
  bench.site = site;
  bench.cpu_parts = paper_cpu_parts();
  bench.iterations = iterations;
  run_hetero_benchmark(platform, bench);
  return {platform.repetitions_simulated(), platform.repetitions_skipped()};
}

TEST(FastForwardEngagementTest, OptimizedListing8SweepsSimulateOneOrTwo) {
  // A1: the p = 0 pass migrates the array to HBM (two repetitions: the
  // cold one and the one that finds the state repeated); every later p
  // finds it there and repeats from its first repetition. A2 pays the
  // cold pass at every p but the CPU-only one.
  for (const CaseId case_id : workload::all_cases()) {
    const Counts a1 = um_sweep_counts(case_id, AllocSite::kA1, true, 200,
                                      gh200_config());
    EXPECT_EQ(a1.simulated, 2 + 10) << workload::case_spec(case_id).name;
    EXPECT_EQ(a1.simulated + a1.skipped, 11 * 200);
    const Counts a2 = um_sweep_counts(case_id, AllocSite::kA2, true, 200,
                                      gh200_config());
    EXPECT_EQ(a2.simulated, 2 * 10 + 1) << workload::case_spec(case_id).name;
    EXPECT_EQ(a2.simulated + a2.skipped, 11 * 200);
  }
}

TEST(FastForwardEngagementTest, BaselineKernelSweepSkipsAsWell) {
  const Counts c = um_sweep_counts(CaseId::kC2, AllocSite::kA1, false, 200,
                                   gh200_config());
  EXPECT_EQ(c.simulated, 2 + 10);
  EXPECT_EQ(c.skipped, 11 * 200 - 12);
}

TEST(FastForwardEngagementTest, Table1PointsSimulateOneRepetition) {
  // Table 1 at N = 5, as certify_reproduction runs it: each explicit-map
  // point leaves nothing behind but time, so its first repetition repeats.
  const SweepOptions opts;
  for (const CaseId case_id : workload::all_cases()) {
    std::vector<std::optional<ReduceTuning>> points = {std::nullopt};
    for (const int v : opts.vs) {
      for (const std::int64_t teams : opts.teams) {
        if (teams % v == 0) points.push_back(ReduceTuning{teams, 256, v});
      }
    }
    for (const auto& tuning : points) {
      Platform platform;
      GpuBenchmark bench;
      bench.case_id = case_id;
      bench.tuning = tuning;
      bench.iterations = 5;
      run_gpu_benchmark(platform, bench);
      EXPECT_EQ(platform.repetitions_simulated(), 1);
      EXPECT_EQ(platform.repetitions_skipped(), 4);
    }
  }
}

TEST(FastForwardEngagementTest, AccessCountersSaturateBeforeTheJump) {
  // Access-counter mode, threshold 16, A1: at p = 0 the GPU's passes over
  // LPDDR pages count up to 16, and only then do the pages migrate in the
  // background. Until then every repetition changes the page table, so
  // the point simulates 17 repetitions; every later p finds the array in
  // HBM and simulates one.
  SystemConfig config = gh200_config();
  config.um.mode = um::MigrationMode::kAccessCounter;
  config.um.gpu_access_threshold = 16;
  const Counts c =
      um_sweep_counts(CaseId::kC1, AllocSite::kA1, true, 200, config);
  EXPECT_EQ(c.simulated, 17 + 10);
  EXPECT_EQ(c.skipped, 11 * 200 - 27);
}

TEST(FastForwardEngagementTest, HookedPlatformsSimulateEveryRepetition) {
  trace::Tracer tracer;
  Platform traced(gh200_config(), {}, &tracer);
  GpuBenchmark bench;
  bench.case_id = CaseId::kC1;
  bench.tuning = paper_best_tuning(CaseId::kC1);
  bench.iterations = 3;
  run_gpu_benchmark(traced, bench);
  EXPECT_EQ(traced.repetitions_simulated(), 3);
  EXPECT_EQ(traced.repetitions_skipped(), 0);
}

// ---------------------------------------------------------------------------
// Runs too long to represent.
// ---------------------------------------------------------------------------

TEST(FastForwardOverflowTest, ClockPastSimTimeThrowsInsteadOfWrapping) {
  // Two points of 2^31 - 1 optimized C1 repetitions, about 2.4 ms each,
  // pass 2^63 ps: the second point's jump overflows the clock.
  Platform platform;
  HeteroBenchmark bench;
  bench.case_id = CaseId::kC1;
  bench.tuning = paper_best_tuning(CaseId::kC1);
  bench.site = AllocSite::kA1;
  bench.cpu_parts = {0.0, 0.5};
  bench.iterations = std::numeric_limits<int>::max();
  EXPECT_THROW(run_hetero_benchmark(platform, bench), OverflowError);
}

TEST(FastForwardOverflowTest, TimedBytesPastBytesThrowBeforeRunning) {
  // C4's 8.4 GB input times 2^31 - 1 repetitions pass 2^63 bytes; the
  // product is checked before any repetition runs.
  Platform platform;
  GpuBenchmark bench;
  bench.case_id = CaseId::kC4;
  bench.tuning = paper_best_tuning(CaseId::kC4);
  bench.iterations = std::numeric_limits<int>::max();
  EXPECT_THROW(run_gpu_benchmark(platform, bench), OverflowError);
  EXPECT_EQ(platform.repetitions_simulated(), 0);
}

}  // namespace
}  // namespace ghs::core
