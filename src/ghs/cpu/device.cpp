#include "ghs/cpu/device.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::cpu {

const char* schedule_name(ScheduleKind schedule) {
  switch (schedule) {
    case ScheduleKind::kStatic:
      return "static";
    case ScheduleKind::kDynamic:
      return "dynamic";
    case ScheduleKind::kGuided:
      return "guided";
  }
  return "?";
}

CpuDevice::CpuDevice(sim::Simulator& sim, mem::Topology& topology,
                     um::UmManager& um, CpuConfig config)
    : sim_(sim),
      topology_(topology),
      um_(um),
      config_(config),
      socket_(topology.network().add_resource("CPU-socket",
                                              config.socket_stream_bw)) {}

double CpuDevice::compute_rate_cap(int threads, bool use_simd,
                                   Bytes element_size) const {
  const double cycles_per_second = config_.clock_ghz * 1e9;
  double bytes_per_cycle_per_core;
  if (use_simd) {
    bytes_per_cycle_per_core = config_.simd_bytes_per_cycle;
  } else {
    bytes_per_cycle_per_core = config_.scalar_elements_per_cycle *
                               static_cast<double>(element_size);
  }
  return static_cast<double>(threads) * bytes_per_cycle_per_core *
         cycles_per_second;
}

void CpuDevice::reduce(const CpuReduceRequest& request,
                       std::function<void(const CpuReduceResult&)> on_complete) {
  GHS_REQUIRE(request.elements > 0, "reduction '" << request.label
                                                  << "' has no elements");
  GHS_REQUIRE(request.threads > 0 && request.threads <= config_.cores,
              "threads=" << request.threads << " cores=" << config_.cores);
  GHS_REQUIRE(request.input_streams >= 1 &&
                  (request.input_streams == 1 || !request.managed),
              "multi-stream reductions are modelled for explicit inputs "
              "only (input_streams="
                  << request.input_streams << ")");
  ++stats_.reductions;

  auto result = std::make_shared<CpuReduceResult>();
  result->start = sim_.now();
  result->bytes = request.total_bytes();

  const SimTime fork = request.include_region_overhead
                           ? config_.parallel_region_overhead / 2
                           : 0;
  SimTime join = request.include_region_overhead
                     ? config_.parallel_region_overhead / 2
                     : 0;
  // Work-queue cost of non-static schedules.
  if (request.schedule == ScheduleKind::kDynamic) {
    join += config_.dynamic_schedule_overhead;
  } else if (request.schedule == ScheduleKind::kGuided) {
    join += config_.dynamic_schedule_overhead / 2;
  }

  // Residency segments for the pass.
  struct Slice {
    Bytes begin;
    Bytes length;
    mem::RegionId source;
    bool duplicate_on_access = false;
    double duplication_cap = 0.0;
  };
  std::vector<Slice> slices;
  if (request.managed) {
    const auto plan =
        um_.plan_pass(request.managed_alloc, um::Accessor::kCpu,
                      request.range_offset, request.total_bytes());
    for (const auto& seg : plan) {
      slices.push_back(Slice{seg.offset, seg.length, seg.source,
                             seg.duplicate_on_access, seg.rate_cap});
      if (seg.source == mem::RegionId::kHbm) {
        result->remote_bytes += seg.length;
      }
    }
  } else {
    slices.push_back(Slice{request.range_offset, request.total_bytes(),
                           mem::RegionId::kLpddr});
  }
  GHS_CHECK(!slices.empty(), "reduction pass with no slices");

  const double total_bytes = static_cast<double>(request.total_bytes());
  const double compute_cap =
      compute_rate_cap(request.threads, request.use_simd,
                       request.element_size);

  auto pending = std::make_shared<std::size_t>(slices.size());
  const std::string label = request.label;
  auto finish = [this, result, join, label,
                 on_complete = std::move(on_complete)] {
    sim_.schedule_after(join, [this, result, label, on_complete] {
      result->end = sim_.now();
      if (tracer_ != nullptr) {
        std::string detail = format_bandwidth(result->bandwidth());
        if (result->remote_bytes > 0) {
          detail += " remote=" + format_bytes(result->remote_bytes);
        }
        tracer_->record(trace::Track::kCpu, label, result->start,
                        result->end, detail);
      }
      if (on_complete) on_complete(*result);
    });
  };

  sim_.schedule_after(fork, [this, slices = std::move(slices), pending,
                             request, total_bytes, compute_cap,
                             finish = std::move(finish)] {
    for (const auto& slice : slices) {
      // static: threads own fixed contiguous chunks, so a slice's rate is
      // capped by the cores whose chunks fall inside it (slow slices
      // create stragglers). dynamic/guided: any idle thread can steal the
      // next chunk, so every slice can draw on the whole pool and the
      // fluid network's socket resource arbitrates.
      const double share = static_cast<double>(slice.length) / total_bytes;
      const double cores_here =
          request.schedule == ScheduleKind::kStatic
              ? std::max(1.0, std::round(
                                  share *
                                  static_cast<double>(request.threads)))
              : static_cast<double>(request.threads);
      const double per_core =
          slice.source == mem::RegionId::kLpddr
              ? config_.per_core_stream_bw.bytes_per_second
              : config_.per_core_remote_bw.bytes_per_second;
      double cap = cores_here * per_core;
      if (request.schedule == ScheduleKind::kStatic) {
        cap = std::min(cap, compute_cap * share);
      } else {
        cap = std::min(cap, compute_cap);
      }
      if (slice.source == mem::RegionId::kLpddr) {
        cap = std::min(cap, config_.aggregate_local_bw.bytes_per_second);
      } else {
        cap = std::min(cap, config_.remote_read_bw.bytes_per_second);
      }
      sim::FlowSpec spec;
      spec.bytes = static_cast<double>(slice.length);
      if (slice.duplicate_on_access) {
        // Establishing a read replica in LPDDR from the HBM home copy.
        spec.rate_cap = std::min(cap, slice.duplication_cap);
        spec.resources =
            topology_.copy_path(slice.source, mem::RegionId::kLpddr);
      } else {
        spec.rate_cap = cap;
        spec.resources = topology_.cpu_read_path(slice.source);
      }
      spec.resources.push_back(socket_);
      spec.label = request.label + ":cpu";
      const Bytes s_begin = slice.begin;
      const Bytes s_len = slice.length;
      const bool duplicate = slice.duplicate_on_access;
      const auto managed_alloc = request.managed_alloc;
      spec.on_complete = [this, pending, finish, duplicate, managed_alloc,
                          s_begin, s_len] {
        if (duplicate) {
          um_.complete_duplication(managed_alloc, s_begin, s_len);
        }
        GHS_CHECK(*pending > 0, "cpu slice completion underflow");
        if (--*pending == 0) finish();
      };
      topology_.network().start_flow(std::move(spec));
    }
  });
}

}  // namespace ghs::cpu
