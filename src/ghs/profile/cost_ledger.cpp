#include "ghs/profile/cost_ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::profile {

namespace {

const char* op_name(std::uint8_t op) {
  return workload::case_spec(static_cast<workload::CaseId>(op)).name;
}

bool is_busy_phase(Device device, Phase phase) {
  if (device == Device::kNone) return false;
  switch (phase) {
    case Phase::kGpuKernel:
    case Phase::kUmMigrate:
    case Phase::kCpuKernel:
    case Phase::kLaunchFailed:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* device_name(Device device) {
  switch (device) {
    case Device::kNone:
      return "none";
    case Device::kGpu:
      return "gpu";
    case Device::kCpu:
      return "cpu";
  }
  return "?";
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kQueueWait:
      return "queue.wait";
    case Phase::kGpuKernel:
      return "gpu.kernel";
    case Phase::kUmMigrate:
      return "um.migrate";
    case Phase::kCpuKernel:
      return "cpu.reduce";
    case Phase::kLaunchFailed:
      return "launch.failed";
    case Phase::kRetryBackoff:
      return "retry.backoff";
    case Phase::kTransfer:
      return "interconnect.transfer";
    case Phase::kSteal:
      return "interconnect.steal";
    case Phase::kDrain:
      return "interconnect.drain";
    case Phase::kReplay:
      return "journal.replay";
  }
  return "?";
}

bool ConservationCheck::ok() const {
  const auto close = [](SimTime a, SimTime b) {
    const SimTime diff = a > b ? a - b : b - a;
    return diff <= kToleranceTicks;
  };
  return close(attributed.gpu_busy_ps, telemetry.gpu_busy_ps) &&
         close(attributed.cpu_busy_ps, telemetry.cpu_busy_ps) &&
         attributed.um_bytes == telemetry.um_bytes &&
         attributed.transfer_bytes == telemetry.transfer_bytes &&
         attributed.replay_bytes == telemetry.replay_bytes;
}

std::vector<std::int64_t> split_proportional(
    std::int64_t total, const std::vector<std::int64_t>& weights) {
  std::vector<std::int64_t> shares(weights.size(), 0);
  if (weights.empty()) return shares;
  std::int64_t weight_sum = 0;
  for (const std::int64_t w : weights) {
    GHS_REQUIRE(w >= 0, "negative split weight " << w);
    weight_sum += w;
  }
  // Cumulative rounding: share_i = floor(total * W_i / sum) -
  // floor(total * W_{i-1} / sum). Telescopes to exactly `total`, and every
  // share stays within 1 of the real-valued proportion.
  std::int64_t cumulative = 0;
  std::int64_t charged = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cumulative += weight_sum == 0 ? 1 : weights[i];
    const std::int64_t denom =
        weight_sum == 0 ? static_cast<std::int64_t>(weights.size())
                        : weight_sum;
    const std::int64_t upto = total * cumulative / denom;
    shares[i] = upto - charged;
    charged = upto;
  }
  return shares;
}

void CostLedger::charge_time(const CostKey& key, SimTime time_ps) {
  if (time_ps <= 0) return;
  Cost& cost = entries_[key];
  cost.time_ps += time_ps;
  ++cost.events;
  if (key.device == Device::kGpu) {
    attributed_.gpu_busy_ps += time_ps;
  } else if (key.device == Device::kCpu) {
    attributed_.cpu_busy_ps += time_ps;
  }
  if (is_busy_phase(key.device, key.phase)) {
    tenant_busy_ps_[key.tenant] += time_ps;
    op_busy_ps_[key.op] += time_ps;
  }
}

void CostLedger::charge_bytes(const CostKey& key, Bytes bytes) {
  if (bytes <= 0) return;
  Cost& cost = entries_[key];
  cost.bytes += bytes;
  ++cost.events;
  switch (key.phase) {
    case Phase::kUmMigrate:
      attributed_.um_bytes += bytes;
      break;
    case Phase::kTransfer:
    case Phase::kSteal:
    case Phase::kDrain:
      attributed_.transfer_bytes += bytes;
      break;
    case Phase::kReplay:
      attributed_.replay_bytes += bytes;
      break;
    default:
      break;
  }
}

ConservationCheck CostLedger::check(
    const ConservationTotals& telemetry) const {
  ConservationCheck result;
  result.attributed = attributed_;
  result.telemetry = telemetry;
  return result;
}

void CostLedger::write_json(std::ostream& os,
                            const ConservationTotals& telemetry) const {
  const ConservationCheck conservation = check(telemetry);
  GHS_CHECK(conservation.ok(),
            "cost attribution leaked: attributed gpu="
                << conservation.attributed.gpu_busy_ps
                << "ps cpu=" << conservation.attributed.cpu_busy_ps
                << "ps um=" << conservation.attributed.um_bytes
                << "B xfer=" << conservation.attributed.transfer_bytes
                << "B replay=" << conservation.attributed.replay_bytes
                << "B vs telemetry gpu=" << telemetry.gpu_busy_ps
                << "ps cpu=" << telemetry.cpu_busy_ps
                << "ps um=" << telemetry.um_bytes
                << "B xfer=" << telemetry.transfer_bytes
                << "B replay=" << telemetry.replay_bytes << "B");

  std::vector<std::pair<CostKey, Cost>> sorted(entries_.begin(),
                                               entries_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              const CostKey& x = a.first;
              const CostKey& y = b.first;
              if (x.tenant != y.tenant) return x.tenant < y.tenant;
              if (x.op != y.op) return x.op < y.op;
              if (x.node != y.node) return x.node < y.node;
              if (x.device != y.device) return x.device < y.device;
              return x.phase < y.phase;
            });

  os << "{\"entries\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto& [key, cost] = sorted[i];
    if (i > 0) os << ",";
    os << "{\"tenant\":" << key.tenant << ",\"op\":\"" << op_name(key.op)
       << "\",\"node\":" << key.node << ",\"device\":\""
       << device_name(key.device) << "\",\"phase\":\""
       << phase_name(key.phase)
       << "\",\"time_ms\":" << format_fixed(to_millis(cost.time_ps), 6)
       << ",\"bytes\":" << cost.bytes << ",\"events\":" << cost.events
       << "}";
  }
  os << "],\"totals\":{\"gpu_busy_ms\":"
     << format_fixed(to_millis(attributed_.gpu_busy_ps), 6)
     << ",\"cpu_busy_ms\":"
     << format_fixed(to_millis(attributed_.cpu_busy_ps), 6)
     << ",\"um_bytes\":" << attributed_.um_bytes
     << ",\"transfer_bytes\":" << attributed_.transfer_bytes
     << ",\"replay_bytes\":" << attributed_.replay_bytes
     << "},\"conservation\":{\"gpu_busy_ps\":{\"attributed\":"
     << attributed_.gpu_busy_ps << ",\"telemetry\":" << telemetry.gpu_busy_ps
     << "},\"cpu_busy_ps\":{\"attributed\":" << attributed_.cpu_busy_ps
     << ",\"telemetry\":" << telemetry.cpu_busy_ps
     << "},\"um_bytes\":{\"attributed\":" << attributed_.um_bytes
     << ",\"telemetry\":" << telemetry.um_bytes
     << "},\"transfer_bytes\":{\"attributed\":" << attributed_.transfer_bytes
     << ",\"telemetry\":" << telemetry.transfer_bytes
     << "},\"replay_bytes\":{\"attributed\":" << attributed_.replay_bytes
     << ",\"telemetry\":" << telemetry.replay_bytes << "},\"ok\":"
     << (conservation.ok() ? "true" : "false") << "}}";
}

void CostLedger::write_table(std::ostream& os, std::size_t top_k) const {
  char buf[160];
  const auto print_top = [&](const char* what, const auto& busy,
                             const auto& label_of) {
    std::vector<std::pair<SimTime, std::string>> rows;
    rows.reserve(busy.size());
    for (const auto& [id, time_ps] : busy) {
      rows.emplace_back(time_ps, label_of(id));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    if (rows.size() > top_k) rows.resize(top_k);
    for (const auto& [time_ps, label] : rows) {
      std::snprintf(buf, sizeof(buf), "  %-8s %-16s busy %10.3fms\n", what,
                    label.c_str(), to_millis(time_ps));
      os << buf;
    }
  };
  std::snprintf(buf, sizeof(buf),
                "cost attribution: gpu %.3fms cpu %.3fms, um %lld B, "
                "interconnect %lld B, replay %lld B\n",
                to_millis(attributed_.gpu_busy_ps),
                to_millis(attributed_.cpu_busy_ps),
                static_cast<long long>(attributed_.um_bytes),
                static_cast<long long>(attributed_.transfer_bytes),
                static_cast<long long>(attributed_.replay_bytes));
  os << buf;
  print_top("tenant", tenant_busy_ps_, [](std::int64_t tenant) {
    return "tenant " + std::to_string(tenant);
  });
  print_top("op", op_busy_ps_,
            [](std::uint8_t op) { return std::string(op_name(op)); });
}

}  // namespace ghs::profile
