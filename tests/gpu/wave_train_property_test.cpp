// Wave trains against the event path, bit for bit.
//
// A wave train (see sim/fluid.hpp) runs a kernel's identical waves inside
// one event. There is no switch to turn trains off. Instead, a chain of
// no-op events, one every picosecond, keeps an event pending at or before
// every wake, so no train can take a single step and every wake goes round
// the event heap, as it did before trains existed.
//
// Each seed draws a small machine and a mix of work: kernels (explicit and
// managed, 1-5,000 CTAs, any V, every combine strategy, back to back) with
// CPU reductions, transfer-engine copies, prefetches, capacity steps and
// UM background migrations running beside them. The scenario runs twice:
// with sparse no-ops, so trains stop and restart at arbitrary waves, and
// with the dense chain. Every completion, every device, UM and resource
// stat, the combine unit, the telemetry snapshot, the flight recorder and
// the trace must match, and the event counts must differ by exactly the
// no-ops.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/core/platform.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::gpu {
namespace {

constexpr Bytes kPage = 4096;

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return values.begin()[rng.next_below(values.size())];
}

std::int64_t below(Rng& rng, std::int64_t bound) {
  return static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(bound)));
}

/// A small machine: few SMs (long trains), short fixed latencies (short
/// runs, so the dense no-op chain stays cheap), 4 KiB pages (residency
/// boundaries inside small arrays) and fast UM migration.
core::SystemConfig draw_config(Rng& rng) {
  core::SystemConfig c = core::gh200_config();
  c.gpu.num_sms = pick(rng, {1, 1, 2, 3, 8, 132});
  c.gpu.mem_latency = from_nanoseconds(10.0 + rng.next_double() * 100.0);
  c.gpu.kernel_launch_latency = 100 + below(rng, 2000);
  c.gpu.cta_dispatch_cost = pick<SimTime>(rng, {0, 0, 1, 5, 50});
  c.gpu.tree_step_cycles = 0.05;
  c.gpu.combine_native_int = 1 + below(rng, 5);
  c.gpu.combine_widening_int = 1 + below(rng, 5);
  c.gpu.combine_float32_cas = 1 + below(rng, 5);
  c.gpu.combine_float64_cas = 1 + below(rng, 5);
  c.cpu.parallel_region_overhead = 200 + below(rng, 1000);
  c.cpu.dynamic_schedule_overhead = 100 + below(rng, 500);
  c.um.page_size = kPage;
  c.um.mode =
      pick(rng, {um::MigrationMode::kNone, um::MigrationMode::kFaultEager,
                 um::MigrationMode::kAccessCounter});
  c.um.gpu_access_threshold = 1 + static_cast<int>(rng.next_below(3));
  c.um.cpu_access_threshold = static_cast<int>(rng.next_below(3));
  c.um.fault_migration_bw =
      Bandwidth::from_gbps(200.0 + static_cast<double>(rng.next_below(400)));
  c.um.duplication_bw =
      Bandwidth::from_gbps(200.0 + static_cast<double>(rng.next_below(400)));
  return c;
}

struct Alloc {
  um::AllocId id;
  Bytes size;
};


/// A byte range of `alloc` aligned to `element_size`: its offset and its
/// length in elements (at least one, at most `max_elements`).
std::pair<Bytes, std::int64_t> draw_range(Rng& rng, const Alloc& alloc,
                                          Bytes element_size,
                                          std::int64_t max_elements) {
  const std::int64_t capacity = alloc.size / element_size;
  const std::int64_t first = below(rng, capacity);
  const std::int64_t count =
      1 + below(rng, std::min(capacity - first, max_elements));
  return {first * element_size, count};
}

KernelDesc draw_kernel(Rng& rng, int index, const std::vector<Alloc>& allocs) {
  KernelDesc d;
  d.label = "k" + std::to_string(index);
  switch (rng.next_below(4)) {
    case 0:
      d.element_size = 4;
      d.combine = CombineClass::kNativeInt;
      break;
    case 1:
      d.element_size = 1;
      d.combine = CombineClass::kWideningInt;
      break;
    case 2:
      d.element_size = 4;
      d.combine = CombineClass::kFloatCas;
      break;
    default:
      d.element_size = 8;
      d.combine = CombineClass::kFloatCas;
      break;
  }
  d.strategy = pick(rng, {CombineStrategy::kAtomicPerCta,
                          CombineStrategy::kAtomicPerWarp,
                          CombineStrategy::kTwoKernel});
  d.threads_per_cta = 32 * (1 + static_cast<int>(rng.next_below(16)));
  d.v = 1 + static_cast<int>(rng.next_below(32));
  // As the OpenMP lowering does, no more CTAs than loop iterations, so
  // every CTA streams at least V elements.
  if (!allocs.empty() && rng.next_below(3) != 0) {
    const Alloc& alloc = allocs[rng.next_below(allocs.size())];
    const auto [offset, elements] =
        draw_range(rng, alloc, d.element_size, alloc.size);
    d.input = InputLocation::kManaged;
    d.managed_alloc = alloc.id;
    d.range_offset = offset;
    d.elements = elements;
    if (d.elements < d.v) d.v = 1;
    d.grid = 1 + below(rng, std::min<std::int64_t>(5000, d.elements / d.v));
  } else {
    // At most 128 KiB.
    const std::int64_t budget = (128 * 1024) / d.element_size;
    d.grid = 1 + below(rng, std::min<std::int64_t>(5000, budget / d.v));
    const std::int64_t per_cta =
        d.v * (1 + below(rng, std::min<std::int64_t>(
                                  4, budget / (d.grid * d.v))));
    d.elements = d.grid * per_cta + below(rng, d.grid);
  }
  return d;
}

cpu::CpuReduceRequest draw_cpu(Rng& rng, int index,
                               const std::vector<Alloc>& allocs) {
  cpu::CpuReduceRequest r;
  r.label = "c" + std::to_string(index);
  r.element_size = pick<Bytes>(rng, {1, 4, 8});
  r.threads = 1 + static_cast<int>(rng.next_below(72));
  r.use_simd = rng.next_below(2) == 0;
  r.schedule =
      pick(rng, {cpu::ScheduleKind::kStatic, cpu::ScheduleKind::kDynamic,
                 cpu::ScheduleKind::kGuided});
  r.include_region_overhead = rng.next_below(2) == 0;
  // At most 256 B per thread, about 30 ns of one core's stream.
  const std::int64_t max_elements = 256 * r.threads / r.element_size;
  if (!allocs.empty() && rng.next_below(2) == 0) {
    const Alloc& alloc = allocs[rng.next_below(allocs.size())];
    const auto [offset, elements] =
        draw_range(rng, alloc, r.element_size, max_elements);
    r.managed = true;
    r.managed_alloc = alloc.id;
    r.range_offset = offset;
    r.elements = elements;
  } else {
    r.input_streams = 1 + static_cast<int>(rng.next_below(2));
    r.elements = 1 + below(rng, max_elements / r.input_streams);
  }
  return r;
}

mem::RegionId draw_region(Rng& rng) {
  return rng.next_below(2) == 0 ? mem::RegionId::kHbm : mem::RegionId::kLpddr;
}

std::string full(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

struct Outcome {
  std::vector<std::pair<std::string, std::string>> sections;
  std::size_t events = 0;  // events processed, no-ops excluded
  std::size_t noops = 0;
  std::size_t batches = 0;
  SimTime end = 0;
};

enum class Noops { kSparse, kEveryPicosecond };

/// Runs scenario `seed`. kSparse schedules a no-op chain with random gaps;
/// kEveryPicosecond schedules one no-op at every picosecond up to `horizon`.
Outcome run(std::uint64_t seed, Noops noops, SimTime horizon) {
  Rng rng(seed);
  const core::SystemConfig config = draw_config(rng);
  core::Platform platform(config);
  telemetry::Registry registry;
  telemetry::FlightRecorder flight(1 << 16);
  platform.set_telemetry({&registry, &flight});
  const trace::Tracer& tracer = platform.enable_tracing();
  sim::Simulator& sim = platform.sim();
  std::ostringstream log;

  std::vector<Alloc> allocs;
  for (auto n = 1 + rng.next_below(2); n > 0; --n) {
    const Bytes size = kPage * (2 + static_cast<Bytes>(rng.next_below(7))) +
                       static_cast<Bytes>(rng.next_below(kPage));
    // Mostly first touched by the CPU, as in the paper's Listing 8.
    const mem::RegionId first_touch = rng.next_below(4) == 0
                                          ? mem::RegionId::kHbm
                                          : mem::RegionId::kLpddr;
    const um::AllocId id = platform.um().allocate(size, first_touch, "a");
    if (rng.next_below(4) == 0) platform.um().advise_read_mostly(id);
    allocs.push_back({id, size});
  }

  // Kernels back to back, each launched a random gap after the last ends.
  std::vector<KernelDesc> kernels;
  std::vector<SimTime> gaps;
  for (int k = 0, n = 2 + static_cast<int>(rng.next_below(4)); k < n; ++k) {
    kernels.push_back(draw_kernel(rng, k, allocs));
    gaps.push_back(static_cast<SimTime>(rng.next_below(20000)));
  }
  std::function<void(std::size_t)> launch = [&](std::size_t k) {
    platform.gpu().launch(kernels[k], [&, k](const KernelResult& r) {
      log << "kernel " << k << " at=" << sim.now() << " start=" << r.start
          << " end=" << r.end << " bytes=" << r.bytes
          << " remote=" << r.remote_bytes << "\n";
      if (k + 1 < kernels.size()) {
        sim.schedule_after(gaps[k + 1], [&launch, k] { launch(k + 1); });
      }
    });
  };
  sim.schedule_at(gaps[0], [&launch] { launch(0); });

  // Co-running work at random times.
  const auto when = [&rng] {
    return static_cast<SimTime>(rng.next_below(150000));
  };
  for (int i = 0, n = static_cast<int>(rng.next_below(4)); i < n; ++i) {
    const cpu::CpuReduceRequest request = draw_cpu(rng, i, allocs);
    sim.schedule_at(when(), [&, request, i] {
      platform.cpu().reduce(request, [&, i](const cpu::CpuReduceResult& r) {
        log << "cpu " << i << " at=" << sim.now() << " start=" << r.start
            << " end=" << r.end << " bytes=" << r.bytes
            << " remote=" << r.remote_bytes << "\n";
      });
    });
  }
  for (int i = 0, n = static_cast<int>(rng.next_below(4)); i < n; ++i) {
    const Bytes bytes = 1 + static_cast<Bytes>(rng.next_below(16 * 1024));
    const mem::RegionId from = draw_region(rng);
    const mem::RegionId to = from == mem::RegionId::kHbm
                                 ? mem::RegionId::kLpddr
                                 : mem::RegionId::kHbm;
    sim.schedule_at(when(), [&, bytes, from, to, i] {
      platform.transfers().copy(
          bytes, from, to,
          [&, i] { log << "copy " << i << " at=" << sim.now() << "\n"; },
          "copy");
    });
  }
  for (int i = 0, n = allocs.empty() ? 0 : static_cast<int>(rng.next_below(3));
       i < n; ++i) {
    const Alloc alloc = allocs[rng.next_below(allocs.size())];
    const auto [offset, length] = draw_range(rng, alloc, 1, alloc.size);
    const mem::RegionId to = draw_region(rng);
    sim.schedule_at(when(), [&, id = alloc.id, offset = offset,
                             length = length, to, i] {
      platform.um().prefetch(id, offset, length, to, [&, i] {
        log << "prefetch " << i << " at=" << sim.now() << "\n";
      });
    });
  }
  sim::FluidNetwork& network = platform.topology().network();
  for (int i = 0, n = static_cast<int>(rng.next_below(4)); i < n; ++i) {
    const auto resource =
        static_cast<sim::ResourceId>(rng.next_below(network.resource_count()));
    const double factor = 0.25 + 1.75 * rng.next_double();
    sim.schedule_at(when(), [&network, resource, factor] {
      network.set_capacity(
          resource,
          Bandwidth{network.capacity(resource).bytes_per_second * factor});
    });
  }

  Outcome out;
  Rng gaps_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::function<void()> noop = [&] {
    ++out.noops;
    if (noops == Noops::kEveryPicosecond) {
      if (sim.now() < horizon) sim.schedule_after(1, noop);
    } else if (!sim.idle()) {
      sim.schedule_after(1 + static_cast<SimTime>(gaps_rng.next_below(30000)),
                         noop);
    }
  };
  sim.schedule_at(0, noop);
  while (sim.drain_batch() > 0) ++out.batches;

  const GpuDevice& gpu = platform.gpu();
  out.events = sim.events_processed() - out.noops;
  out.end = sim.now();
  std::ostringstream stats;
  stats << "end=" << sim.now() << " gpu_busy=" << gpu.busy()
        << " kernels=" << gpu.stats().kernels_launched
        << " waves=" << gpu.stats().waves_executed
        << " combines=" << gpu.stats().combines_issued
        << " combine_available_at=" << gpu.combine_unit().available_at()
        << " combine_busy=" << gpu.combine_unit().busy_time()
        << " combine_completed=" << gpu.combine_unit().completed()
        << " cpu_reductions=" << platform.cpu().stats().reductions
        << " copies=" << platform.transfers().stats().copies
        << " copy_bytes=" << platform.transfers().stats().bytes
        << " flows_left=" << network.active_flows() << "\n";
  const um::UmStats& u = platform.um().stats();
  stats << "um fault=" << u.fault_migrations
        << " counter=" << u.counter_migrations
        << " to_hbm=" << u.bytes_migrated_to_hbm
        << " to_lpddr=" << u.bytes_migrated_to_lpddr
        << " remote_gpu=" << u.remote_bytes_gpu
        << " remote_cpu=" << u.remote_bytes_cpu
        << " duplicated=" << u.bytes_duplicated << "\n";
  for (sim::ResourceId r = 0; r < network.resource_count(); ++r) {
    const sim::ResourceStats& s = network.resource_stats(r);
    stats << "resource " << r << " bytes_served=" << full(s.bytes_served)
          << " busy_time_ps=" << full(s.busy_time_ps) << "\n";
  }
  out.sections.emplace_back("completions", log.str());
  out.sections.emplace_back("stats", stats.str());

  // The event counter counts the no-ops too; take them out.
  std::ostringstream metrics;
  telemetry::write_prometheus(metrics, registry);
  std::string text = metrics.str();
  const std::string key = "\nghs_sim_events_total ";
  const std::size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) {
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find('\n', begin);
    const auto counted = std::stoll(text.substr(begin, end - begin));
    text.replace(begin, end - begin,
                 std::to_string(counted - static_cast<long long>(out.noops)));
  }
  out.sections.emplace_back("metrics", text);

  std::ostringstream recorder;
  recorder << "recorded=" << flight.total_recorded() << "\n";
  flight.dump(recorder);
  out.sections.emplace_back("flight recorder", recorder.str());

  std::ostringstream spans;
  for (const auto& span : tracer.spans()) {
    spans << static_cast<int>(span.track) << " " << span.name << " ["
          << span.begin << ", " << span.end << "] " << span.detail << "\n";
  }
  out.sections.emplace_back("trace", spans.str());
  return out;
}

/// Line by line, so a failure names the first line that moved.
void expect_same(const std::string& section, const std::string& trains,
                 const std::string& events, std::uint64_t seed) {
  std::istringstream a(trains);
  std::istringstream b(events);
  std::string line_a;
  std::string line_b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    if (!more_a && !more_b) return;
    if (more_a && more_b && line_a == line_b) continue;
    ADD_FAILURE() << "seed " << seed << ", " << section << " line " << line
                  << "\n  trains:     " << (more_a ? line_a : "<end>")
                  << "\n  event path: " << (more_b ? line_b : "<end>");
    return;
  }
}

TEST(WaveTrainPropertyTest, TrainsMatchTheEventPathBitForBit) {
  std::size_t train_events = 0;
  std::size_t train_batches = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Outcome trains = run(seed, Noops::kSparse, 0);
    const Outcome events = run(seed, Noops::kEveryPicosecond, trains.end);
    ASSERT_EQ(trains.sections.size(), events.sections.size());
    for (std::size_t i = 0; i < trains.sections.size(); ++i) {
      expect_same(trains.sections[i].first, trains.sections[i].second,
                  events.sections[i].second, seed);
    }
    EXPECT_EQ(trains.events, events.events) << "seed " << seed;
    // Every picosecond up to the end held a no-op, and each took its own
    // batch: no wake of the event-path run went inline.
    EXPECT_EQ(events.batches, static_cast<std::size_t>(events.end) + 1)
        << "seed " << seed;
    if (HasFailure()) return;  // the first diverging seed is enough
    train_events += trains.events;
    train_batches += trains.batches - trains.noops;
  }
  // Trains ran: most events ran inside a batch that another event opened,
  // as inline wakes do (each no-op opens its own).
  EXPECT_LT(2 * train_batches, train_events);
}

}  // namespace
}  // namespace ghs::gpu
