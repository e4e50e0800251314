#include "ghs/gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ghs/gpu/occupancy.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/log.hpp"
#include "ghs/util/math.hpp"

namespace ghs::gpu {

const char* combine_strategy_name(CombineStrategy strategy) {
  switch (strategy) {
    case CombineStrategy::kAtomicPerCta:
      return "atomic-per-cta";
    case CombineStrategy::kAtomicPerWarp:
      return "atomic-per-warp";
    case CombineStrategy::kTwoKernel:
      return "two-kernel";
  }
  return "?";
}

struct GpuDevice::Execution {
  KernelDesc desc;
  std::function<void(const KernelResult&)> on_complete;
  KernelResult result;

  // Derived geometry.
  std::int64_t wave_size = 0;       // resident CTAs
  double bytes_per_cta = 0.0;
  double cta_cap = 0.0;             // bytes/s per CTA
  SimTime tree_latency = 0;

  // Progress.
  std::int64_t ctas_done = 0;       // CTAs whose data has drained
  std::int64_t ctas_dispatched = 0;
  double bytes_done = 0.0;          // kernel-range bytes drained so far
  SimTime begin_time = 0;           // after launch latency
  SimTime last_combine_done = 0;

  // UM pass plan for this launch (empty in explicit mode).
  std::vector<um::SegmentPlan> plan;
};

GpuDevice::GpuDevice(sim::Simulator& sim, mem::Topology& topology,
                     um::UmManager& um, GpuConfig config)
    : sim_(sim), topology_(topology), um_(um), config_(config) {}

void GpuDevice::launch(const KernelDesc& desc,
                       std::function<void(const KernelResult&)> on_complete) {
  GHS_REQUIRE(!busy_, "kernel '" << desc.label
                                 << "' launched while the device is busy");
  GHS_REQUIRE(desc.grid > 0, "kernel '" << desc.label << "' has empty grid");
  GHS_REQUIRE(desc.elements > 0, "kernel '" << desc.label
                                            << "' has no elements");
  busy_ = true;
  ++stats_.kernels_launched;
  if (kernels_counter_ != nullptr) kernels_counter_->inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), "gpu", "kernel_launch", desc.label);
  }

  auto exec = std::make_shared<Execution>();
  exec->desc = desc;
  exec->on_complete = std::move(on_complete);
  exec->result.start = sim_.now();
  exec->result.bytes = desc.total_bytes();
  exec->wave_size =
      std::min<std::int64_t>(desc.grid,
                             resident_ctas(config_, desc.threads_per_cta));
  exec->bytes_per_cta = static_cast<double>(desc.total_bytes()) /
                        static_cast<double>(desc.grid);
  exec->cta_cap =
      cta_rate_cap(config_, desc.threads_per_cta, desc.v, desc.element_size);
  const int tree_steps = log2_pow2(desc.threads_per_cta / config_.warp_size) +
                         log2_pow2(config_.warp_size);
  exec->tree_latency = static_cast<SimTime>(
      config_.tree_step_cycles * static_cast<double>(tree_steps) *
      config_.cycle_ps());

  sim_.schedule_after(config_.kernel_launch_latency, [this, exec] {
    exec->begin_time = sim_.now();
    if (exec->desc.input == InputLocation::kManaged) {
      exec->plan = um_.plan_pass(exec->desc.managed_alloc, um::Accessor::kGpu,
                                 exec->desc.range_offset,
                                 exec->desc.total_bytes());
      for (const auto& seg : exec->plan) {
        if (seg.source == mem::RegionId::kLpddr) {
          exec->result.remote_bytes += seg.length;
        }
      }
    }
    start_wave(exec);
  });
}

void GpuDevice::start_wave(const std::shared_ptr<Execution>& exec) {
  const KernelDesc& desc = exec->desc;
  const std::int64_t remaining = desc.grid - exec->ctas_dispatched;
  GHS_CHECK(remaining > 0, "wave started with no CTAs left");
  const std::int64_t count = std::min(exec->wave_size, remaining);
  exec->ctas_dispatched += count;
  ++stats_.waves_executed;
  if (waves_counter_ != nullptr) waves_counter_->inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), "gpu", "wave_launch",
                    desc.label + ": " + std::to_string(count) + " CTAs");
  }

  // Serial CTA dispatch: the wave cannot start before the gigathread engine
  // has emitted its CTAs.
  const SimTime dispatch_ready =
      exec->begin_time + config_.cta_dispatch_cost * exec->ctas_dispatched;
  const SimTime start_at = std::max(sim_.now(), dispatch_ready);

  const double wave_bytes =
      static_cast<double>(count) * exec->bytes_per_cta;
  const double wave_cap = static_cast<double>(count) * exec->cta_cap;
  const double hbm_stream_cap =
      config_.stream_efficiency(desc.element_size) *
      topology_.config().hbm_bw.bytes_per_second;

  // Byte range this wave covers within the kernel's input.
  const Bytes range_begin =
      desc.range_offset + static_cast<Bytes>(std::llround(exec->bytes_done));
  exec->bytes_done += wave_bytes;
  const Bytes range_end = (exec->ctas_dispatched == desc.grid)
                              ? desc.range_offset + desc.total_bytes()
                              : desc.range_offset +
                                    static_cast<Bytes>(
                                        std::llround(exec->bytes_done));

  // Build the wave's flows: one in explicit mode, one per residency slice
  // in UM mode.
  struct Slice {
    Bytes begin;
    Bytes end;
    std::vector<sim::ResourceId> path;
    double cap;
    bool migrate_on_access;
    bool duplicate_on_access = false;
  };
  std::vector<Slice> slices;
  if (desc.input == InputLocation::kDeviceBuffer) {
    slices.push_back(Slice{range_begin, range_end,
                           topology_.gpu_read_path(mem::RegionId::kHbm),
                           std::min(wave_cap, hbm_stream_cap), false});
  } else {
    for (const auto& seg : exec->plan) {
      const Bytes begin = std::max(range_begin, seg.offset);
      const Bytes end = std::min(range_end, seg.offset + seg.length);
      if (begin >= end) continue;
      Slice slice;
      slice.begin = begin;
      slice.end = end;
      slice.migrate_on_access = seg.migrate_on_access;
      slice.duplicate_on_access = seg.duplicate_on_access;
      if (seg.duplicate_on_access) {
        // Establishing a read replica: a copy from the home memory into
        // HBM at the duplication rate.
        slice.path = topology_.copy_path(seg.source, mem::RegionId::kHbm);
        slice.cap = std::min(wave_cap, seg.rate_cap);
      } else if (seg.migrate_on_access) {
        // Fault-driven migration: the wave's reads drive the pages across
        // the link at the fault-handling rate.
        slice.path = topology_.migration_path(seg.source, mem::RegionId::kHbm);
        slice.cap = std::min(wave_cap, seg.rate_cap);
      } else if (seg.source == mem::RegionId::kHbm) {
        slice.path = topology_.gpu_read_path(mem::RegionId::kHbm);
        slice.cap = std::min(wave_cap * config_.um_hbm_efficiency,
                             hbm_stream_cap * config_.um_hbm_efficiency);
      } else {
        slice.path = topology_.gpu_read_path(mem::RegionId::kLpddr);
        slice.cap = std::min(wave_cap, config_.remote_read_bw.bytes_per_second);
      }
      slices.push_back(std::move(slice));
    }
    GHS_CHECK(!slices.empty(), "UM wave produced no slices");
  }

  auto pending = std::make_shared<std::size_t>(slices.size());
  auto flow_end_max = std::make_shared<SimTime>(0);
  const um::AllocId managed = desc.managed_alloc;
  for (const auto& slice : slices) {
    sim::FlowSpec spec;
    spec.bytes = static_cast<double>(slice.end - slice.begin);
    spec.rate_cap = slice.cap;
    spec.resources = slice.path;
    spec.label = desc.label + ":wave";
    const Bytes s_begin = slice.begin;
    const Bytes s_len = slice.end - slice.begin;
    const bool flip = slice.migrate_on_access;
    const bool duplicate = slice.duplicate_on_access;
    spec.on_complete = [this, exec, pending, flow_end_max, count, s_begin,
                        s_len, flip, duplicate, managed, start_at] {
      if (flip) {
        um_.complete_segment(managed, s_begin, s_len, mem::RegionId::kHbm);
      } else if (duplicate) {
        um_.complete_duplication(managed, s_begin, s_len);
      }
      *flow_end_max = std::max(*flow_end_max, sim_.now());
      GHS_CHECK(*pending > 0, "wave completion underflow");
      if (--*pending == 0) {
        finish_wave(exec, count, start_at, *flow_end_max);
      }
    };
    const SimTime delay = start_at - sim_.now();
    if (delay > 0) {
      sim_.schedule_after(delay, [this, spec = std::move(spec)]() mutable {
        topology_.network().start_flow(std::move(spec));
      });
    } else {
      topology_.network().start_flow(std::move(spec));
    }
  }
}

void GpuDevice::finish_wave(const std::shared_ptr<Execution>& exec,
                            std::int64_t cta_count, SimTime wave_start,
                            SimTime flow_end) {
  trace::record_span(tracer_, trace::Track::kGpuWaves,
                     exec->desc.label + ":wave", wave_start, flow_end,
                     std::to_string(cta_count) + " CTAs");
  // Fold the wave's partials according to the kernel's combine strategy.
  switch (exec->desc.strategy) {
    case CombineStrategy::kAtomicPerCta: {
      // Shared-memory tree, then one serialized combine per CTA.
      const SimTime combine_arrival = flow_end + exec->tree_latency;
      const SimTime combine_done = combine_unit_.submit_batch(
          combine_arrival,
          config_.combine_cost(exec->desc.combine, exec->desc.element_size),
          cta_count);
      stats_.combines_issued += cta_count;
      exec->last_combine_done =
          std::max(exec->last_combine_done, combine_done);
      break;
    }
    case CombineStrategy::kAtomicPerWarp: {
      // Warp shuffle (one warp-width tree, no barriers), then one combine
      // per warp.
      const SimTime shuffle_latency = static_cast<SimTime>(
          config_.tree_step_cycles *
          static_cast<double>(log2_pow2(config_.warp_size)) * 0.5 *
          config_.cycle_ps());
      const std::int64_t combines =
          cta_count * exec->desc.warps_per_cta();
      const SimTime combine_done = combine_unit_.submit_batch(
          flow_end + shuffle_latency,
          config_.combine_cost(exec->desc.combine, exec->desc.element_size),
          combines);
      stats_.combines_issued += combines;
      exec->last_combine_done =
          std::max(exec->last_combine_done, combine_done);
      break;
    }
    case CombineStrategy::kTwoKernel:
      // CTAs write one partial each to a scratch buffer (bytes negligible
      // against the input stream); the fold happens in a second kernel
      // charged at kernel end.
      exec->last_combine_done =
          std::max(exec->last_combine_done, flow_end + exec->tree_latency);
      break;
  }
  exec->ctas_done += cta_count;

  if (exec->ctas_dispatched < exec->desc.grid) {
    start_wave(exec);
    return;
  }
  GHS_CHECK(exec->ctas_done == exec->desc.grid, "CTA accounting mismatch");
  finish_kernel(exec);
}

void GpuDevice::finish_kernel(const std::shared_ptr<Execution>& exec) {
  SimTime end_at = std::max(sim_.now(), exec->last_combine_done);
  if (exec->desc.strategy == CombineStrategy::kTwoKernel) {
    // Second kernel: one CTA-sized pass over the grid's partials. Launch
    // latency dominates; the data volume (grid x result size) is tiny.
    const double partial_bytes =
        static_cast<double>(exec->desc.grid) * 8.0;
    const double rate =
        config_.stream_efficiency(8) *
        topology_.config().hbm_bw.bytes_per_second;
    end_at += config_.kernel_launch_latency + exec->tree_latency +
              from_seconds(partial_bytes / rate);
  }
  const SimTime delay = end_at - sim_.now();
  sim_.schedule_after(delay, [this, exec] {
    exec->result.end = sim_.now();
    busy_ = false;
    GHS_DEBUG("kernel '" << exec->desc.label << "' done in "
                         << format_time(exec->result.duration()) << " ("
                         << format_bandwidth(exec->result.bandwidth()) << ")");
    if (tracer_ != nullptr) {
      std::string detail = "grid=" + std::to_string(exec->desc.grid);
      detail += " threads=" + std::to_string(exec->desc.threads_per_cta);
      detail += " v=" + std::to_string(exec->desc.v);
      detail += " " + format_bandwidth(exec->result.bandwidth());
      if (exec->result.remote_bytes > 0) {
        detail += " remote=" + format_bytes(exec->result.remote_bytes);
      }
      tracer_->record(trace::Track::kGpu, exec->desc.label,
                      exec->result.start, exec->result.end, detail);
    }
    if (exec->on_complete) exec->on_complete(exec->result);
  });
}

void GpuDevice::set_telemetry(telemetry::Sink sink) {
  flight_ = sink.flight;
  if (sink.metrics == nullptr) {
    kernels_counter_ = nullptr;
    waves_counter_ = nullptr;
    return;
  }
  kernels_counter_ = &sink.metrics->counter(
      "ghs_gpu_kernels_total", {}, "Kernels launched on the simulated GPU");
  waves_counter_ = &sink.metrics->counter(
      "ghs_gpu_waves_total", {}, "Occupancy-limited waves executed");
}

}  // namespace ghs::gpu
