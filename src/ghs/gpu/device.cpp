#include "ghs/gpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ghs/gpu/occupancy.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::gpu {

struct GpuDevice::Instruments {
  explicit Instruments(telemetry::Registry& r)
      : kernels(r.counter("ghs_gpu_kernels_total", {},
                          "Kernels launched on the simulated GPU")),
        waves(r.counter("ghs_gpu_waves_total", {},
                        "Occupancy-limited waves executed")) {}

  telemetry::Counter& kernels;
  telemetry::Counter& waves;
};

namespace {

/// (kernel label)
constexpr telemetry::EventType kKernelLaunchEvent{
    "gpu", "kernel_launch",
    [](std::string& out, const telemetry::EventArgs& a) { out += a.name(0); }};
/// (kernel label, CTAs)
constexpr telemetry::EventType kWaveLaunchEvent{
    "gpu", "wave_launch", [](std::string& out, const telemetry::EventArgs& a) {
      telemetry::append(out, a.name(0), ": ", a.i(1), " CTAs");
    }};

}  // namespace

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

namespace {

/// One flow of a wave: a byte range of the kernel's input, where it is
/// served from and the flow's rate cap.
struct Slice {
  Bytes begin = 0;
  Bytes end = 0;
  mem::RegionId source = mem::RegionId::kHbm;
  double cap = 0.0;
  bool migrate_on_access = false;
  bool duplicate_on_access = false;

  bool plain() const { return !migrate_on_access && !duplicate_on_access; }
};

}  // namespace

struct GpuDevice::Execution {
  KernelDesc desc;
  std::function<void(const KernelResult&)> on_complete;
  KernelResult result;

  // Derived geometry.
  std::int64_t wave_size = 0;       // resident CTAs
  double bytes_per_cta = 0.0;
  double cta_cap = 0.0;             // bytes/s per CTA
  double hbm_stream_cap = 0.0;      // bytes/s of a saturating stream
  SimTime tree_latency = 0;
  /// desc.label interned in the attached flight recorder.
  std::int64_t flight_label = 0;

  // Progress.
  std::int64_t ctas_done = 0;       // CTAs whose data has drained
  std::int64_t ctas_dispatched = 0;
  double bytes_done = 0.0;          // kernel-range bytes drained so far
  SimTime begin_time = 0;           // after launch latency
  SimTime last_combine_done = 0;

  // The wave in flight.
  std::int64_t wave_ctas = 0;
  SimTime wave_start = 0;
  SimTime wave_end = 0;             // latest slice completion so far
  std::size_t slices_left = 0;
  std::vector<Slice> slices;
  /// True while the wave runs as one plain flow (no migration, no
  /// replica) from `flow_source` capped at `flow_cap`; a next wave with
  /// the same source and cap renews that flow.
  bool one_plain_flow = false;
  mem::RegionId flow_source = mem::RegionId::kHbm;
  double flow_cap = 0.0;

  // UM pass plan for this launch (empty in explicit mode).
  std::vector<um::SegmentPlan> plan;
};

GpuDevice::GpuDevice(sim::Simulator& sim, mem::Topology& topology,
                     um::UmManager& um, GpuConfig config,
                     telemetry::Sink sink, trace::Tracer* tracer)
    : sim_(sim),
      topology_(topology),
      um_(um),
      config_(config),
      tracer_(tracer),
      flight_(sink.flight),
      m_(sink.metrics != nullptr ? &sink.metrics->handles<Instruments>()
                                 : nullptr) {}

void GpuDevice::launch(const KernelDesc& desc,
                       std::function<void(const KernelResult&)> on_complete) {
  GHS_REQUIRE(!busy_, "kernel '" << desc.label
                                 << "' launched while the device is busy");
  GHS_REQUIRE(desc.grid > 0, "kernel '" << desc.label << "' has empty grid");
  GHS_REQUIRE(desc.elements > 0, "kernel '" << desc.label
                                            << "' has no elements");
  busy_ = true;
  ++stats_.kernels_launched;
  if (m_ != nullptr) m_->kernels.inc();

  auto exec = std::make_shared<Execution>();
  if (flight_ != nullptr) {
    // Interned once per kernel; every wave record reuses the id.
    exec->flight_label = flight_->intern(desc.label);
    flight_->record(sim_.now(), kKernelLaunchEvent, exec->flight_label);
  }
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
  exec->hbm_stream_cap = config_.stream_efficiency(desc.element_size) *
                         topology_.config().hbm_bw.bytes_per_second;
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
  if (m_ != nullptr) m_->waves.inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), kWaveLaunchEvent, exec->flight_label, count);
  }

  // Serial CTA dispatch: the wave cannot start before the gigathread engine
  // has emitted its CTAs.
  const SimTime dispatch_ready =
      exec->begin_time + config_.cta_dispatch_cost * exec->ctas_dispatched;
  const SimTime start_at = std::max(sim_.now(), dispatch_ready);

  const double wave_bytes = static_cast<double>(count) * exec->bytes_per_cta;
  const double wave_cap = static_cast<double>(count) * exec->cta_cap;

  // Byte range this wave covers within the kernel's input.
  const Bytes range_begin = desc.range_offset + round_nonneg(exec->bytes_done);
  exec->bytes_done += wave_bytes;
  const Bytes range_end =
      desc.range_offset + (exec->ctas_dispatched == desc.grid
                               ? desc.total_bytes()
                               : round_nonneg(exec->bytes_done));

  // The wave's flows: one in explicit mode, one per residency slice in UM
  // mode.
  std::vector<Slice>& slices = exec->slices;
  slices.clear();
  if (desc.input == InputLocation::kDeviceBuffer) {
    slices.push_back(Slice{range_begin, range_end, mem::RegionId::kHbm,
                           std::min(wave_cap, exec->hbm_stream_cap)});
  } else {
    for (const auto& seg : exec->plan) {
      const Bytes begin = std::max(range_begin, seg.offset);
      const Bytes end = std::min(range_end, seg.offset + seg.length);
      if (begin >= end) continue;
      Slice slice{begin, end, seg.source, 0.0, seg.migrate_on_access,
                  seg.duplicate_on_access};
      if (seg.duplicate_on_access || seg.migrate_on_access) {
        // A replica copy or a fault-driven migration: the wave's reads
        // drive the pages across the link at the duplication or
        // fault-handling rate.
        slice.cap = std::min(wave_cap, seg.rate_cap);
      } else if (seg.source == mem::RegionId::kHbm) {
        slice.cap = std::min(wave_cap * config_.um_hbm_efficiency,
                             exec->hbm_stream_cap * config_.um_hbm_efficiency);
      } else {
        slice.cap = std::min(wave_cap, config_.remote_read_bw.bytes_per_second);
      }
      slices.push_back(slice);
    }
    GHS_CHECK(!slices.empty(), "UM wave produced no slices");
  }
  exec->wave_ctas = count;
  exec->wave_start = start_at;
  exec->wave_end = 0;
  exec->slices_left = slices.size();

  const Slice& first = slices.front();
  const bool one_plain = slices.size() == 1 && first.plain();
  if (one_plain && exec->one_plain_flow && first.source == exec->flow_source &&
      first.cap == exec->flow_cap && start_at == sim_.now()) {
    // The previous wave ran as one plain flow, which has just drained:
    // start_wave runs from its completion callback. This wave is the same
    // flow (same path and cap, starting at once), so renew it with this
    // wave's bytes; the fluid network then runs the wave train.
    topology_.network().renew_flow(
        static_cast<double>(first.end - first.begin));
    return;
  }
  exec->one_plain_flow = one_plain;
  exec->flow_source = first.source;
  exec->flow_cap = first.cap;
  const um::AllocId managed = desc.managed_alloc;
  for (const Slice& slice : slices) {
    sim::FlowSpec spec;
    spec.bytes = static_cast<double>(slice.end - slice.begin);
    spec.rate_cap = slice.cap;
    if (slice.duplicate_on_access) {
      // Establishing a read replica: a copy from the home memory into HBM.
      spec.resources = topology_.copy_path(slice.source, mem::RegionId::kHbm);
    } else if (slice.migrate_on_access) {
      spec.resources =
          topology_.migration_path(slice.source, mem::RegionId::kHbm);
    } else {
      spec.resources = topology_.gpu_read_path(slice.source);
    }
    const Bytes s_begin = slice.begin;
    const Bytes s_len = slice.end - slice.begin;
    if (slice.migrate_on_access) {
      spec.on_complete = [this, exec, managed, s_begin, s_len] {
        um_.complete_segment(managed, s_begin, s_len, mem::RegionId::kHbm);
        slice_drained(exec);
      };
    } else if (slice.duplicate_on_access) {
      spec.on_complete = [this, exec, managed, s_begin, s_len] {
        um_.complete_duplication(managed, s_begin, s_len);
        slice_drained(exec);
      };
    } else {
      spec.on_complete = [this, exec] { slice_drained(exec); };
    }
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

void GpuDevice::slice_drained(const std::shared_ptr<Execution>& exec) {
  exec->wave_end = std::max(exec->wave_end, sim_.now());
  GHS_CHECK(exec->slices_left > 0, "wave completion underflow");
  if (--exec->slices_left == 0) finish_wave(exec);
}

void GpuDevice::finish_wave(const std::shared_ptr<Execution>& exec) {
  const std::int64_t cta_count = exec->wave_ctas;
  const SimTime flow_end = exec->wave_end;
  if (tracer_ != nullptr) {
    tracer_->record(trace::Track::kGpuWaves, exec->desc.label + ":wave",
                    exec->wave_start, flow_end,
                    std::to_string(cta_count) + " CTAs");
  }
  // Fold the wave's partials according to the kernel's combine strategy.
  switch (exec->desc.strategy) {
    case CombineStrategy::kAtomicPerCta: {
      // Shared-memory tree, then one serialized combine per CTA.
      const SimTime combine_arrival = flow_end + exec->tree_latency;
      const SimTime combine_done = combine_unit_.submit_batch(
          combine_arrival,
          config_.combine_cost(exec->desc.combine, exec->desc.element_size),
          cta_count);
      exec->last_combine_done = std::max(exec->last_combine_done, combine_done);
      break;
    }
    case CombineStrategy::kAtomicPerWarp: {
      // Warp shuffle (one warp-width tree, no barriers), then one combine
      // per warp.
      const SimTime shuffle_latency = static_cast<SimTime>(
          config_.tree_step_cycles *
          static_cast<double>(log2_pow2(config_.warp_size)) * 0.5 *
          config_.cycle_ps());
      const std::int64_t combines = cta_count * exec->desc.warps_per_cta();
      const SimTime combine_done = combine_unit_.submit_batch(
          flow_end + shuffle_latency,
          config_.combine_cost(exec->desc.combine, exec->desc.element_size),
          combines);
      exec->last_combine_done = std::max(exec->last_combine_done, combine_done);
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

void GpuDevice::digest(std::vector<std::int64_t>& out) const {
  out.push_back(busy_);
  out.push_back(
      std::max<SimTime>(0, combine_unit_.available_at() - sim_.now()));
}

void GpuDevice::fast_forward(const GpuDeviceStats& since,
                             const sim::SerialServer& combine_since,
                             SimTime dt, std::int64_t k) {
  GHS_REQUIRE(!busy_, "fast-forward of a busy device");
  const std::int64_t kernels =
      stats_.kernels_launched - since.kernels_launched;
  const std::int64_t waves = stats_.waves_executed - since.waves_executed;
  stats_.kernels_launched +=
      repeated(stats_.kernels_launched, k, kernels, "kernels launched");
  stats_.waves_executed +=
      repeated(stats_.waves_executed, k, waves, "waves executed");
  if (m_ != nullptr) {
    m_->kernels.inc(
        repeated(m_->kernels.value(), k, kernels, "ghs_gpu_kernels_total"));
    m_->waves.inc(
        repeated(m_->waves.value(), k, waves, "ghs_gpu_waves_total"));
  }
  combine_unit_.fast_forward(combine_since, dt, k);
}

}  // namespace ghs::gpu
