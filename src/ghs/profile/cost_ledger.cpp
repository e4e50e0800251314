#include "ghs/profile/cost_ledger.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"
#include "ghs/util/writer.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::profile {

namespace {

const char* op_name(std::uint8_t op) {
  return workload::case_spec(static_cast<workload::CaseId>(op)).name;
}

// The proportional split's product when it passes 64 bits.
__extension__ typedef __int128 Wide;

struct CellSpec {
  Device device;
  Phase phase;
};

/// A row's cells. The four a launch charges come first, so they share the
/// row's first cache lines.
constexpr CellSpec kCellSpecs[CostLedger::kCells] = {
    {Device::kNone, Phase::kQueueWait},    {Device::kGpu, Phase::kGpuKernel},
    {Device::kGpu, Phase::kUmMigrate},     {Device::kCpu, Phase::kCpuKernel},
    {Device::kGpu, Phase::kLaunchFailed},  {Device::kCpu, Phase::kLaunchFailed},
    {Device::kNone, Phase::kRetryBackoff}, {Device::kNone, Phase::kTransfer},
    {Device::kNone, Phase::kSteal},        {Device::kNone, Phase::kDrain},
    {Device::kNone, Phase::kReplay},
};

constexpr int kDevices = 3;
constexpr int kPhases = 10;

/// (device, phase) -> cell, -1 for a pair no charge can name.
constexpr auto kCellOf = [] {
  std::array<std::array<int, kPhases>, kDevices> of{};
  for (auto& phases : of) phases.fill(-1);
  for (std::size_t i = 0; i < CostLedger::kCells; ++i) {
    of[static_cast<std::size_t>(kCellSpecs[i].device)]
      [static_cast<std::size_t>(kCellSpecs[i].phase)] = static_cast<int>(i);
  }
  return of;
}();

/// The cells in the report's (device, phase) order.
constexpr auto kReportOrder = [] {
  std::array<std::size_t, CostLedger::kCells> order{};
  std::size_t n = 0;
  for (const auto& phases : kCellOf) {
    for (const int cell : phases) {
      if (cell >= 0) order[n++] = static_cast<std::size_t>(cell);
    }
  }
  return order;
}();

std::uint64_t row_hash(std::int64_t tenant, std::uint8_t op,
                       std::int16_t node) {
  // splitmix-style fold of the packed key.
  std::uint64_t x = static_cast<std::uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL;
  x ^= (static_cast<std::uint64_t>(op) << 16) |
       static_cast<std::uint64_t>(static_cast<std::uint16_t>(node));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
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

ProportionalSplit::ProportionalSplit(std::int64_t total,
                                     std::int64_t weight_sum,
                                     std::size_t count)
    : total_(total),
      weight_sum_(weight_sum),
      denom_(weight_sum == 0 ? static_cast<std::int64_t>(count)
                             : weight_sum) {}

std::int64_t ProportionalSplit::next(std::int64_t weight) {
  // Cumulative rounding: share_i = floor(total * W_i / sum) -
  // floor(total * W_{i-1} / sum). Telescopes to exactly `total`, and every
  // share stays within 1 of the real-valued proportion. The last share
  // (a one-job launch's only one) needs no division, and a product past
  // 64 bits (a 2^39-element job's picoseconds times its elements) is
  // taken in 128.
  cumulative_ += weight_sum_ == 0 ? 1 : weight;
  std::int64_t upto = total_;
  if (cumulative_ != denom_) {
    std::int64_t product = 0;
    upto = __builtin_mul_overflow(total_, cumulative_, &product)
               ? static_cast<std::int64_t>(static_cast<Wide>(total_) *
                                           cumulative_ / denom_)
               : product / denom_;
  }
  const std::int64_t share = upto - charged_;
  charged_ = upto;
  return share;
}

CostLedger::CostLedger() { op_tally_of_.fill(kNoTally); }

CostLedger::RowId CostLedger::row(std::int64_t tenant, std::uint8_t op,
                                  std::int16_t node) {
  if (2 * (rows_.size() + 1) > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = row_hash(tenant, op, node) & mask;;
       i = (i + 1) & mask) {
    if (index_[i] == 0) {
      Row& fresh = rows_.emplace_back();
      fresh.tenant = tenant;
      fresh.node = node;
      fresh.op = op;
      index_[i] = static_cast<RowId>(rows_.size());
      return index_[i] - 1;
    }
    const Row& r = rows_[index_[i] - 1];
    if (r.tenant == tenant && r.op == op && r.node == node) {
      return index_[i] - 1;
    }
  }
}

void CostLedger::grow_index() {
  std::vector<RowId> index(std::max<std::size_t>(64, 2 * index_.size()), 0);
  const std::size_t mask = index.size() - 1;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::size_t i = row_hash(rows_[r].tenant, rows_[r].op, rows_[r].node) &
                    mask;
    while (index[i] != 0) i = (i + 1) & mask;
    index[i] = static_cast<RowId>(r + 1);
  }
  index_ = std::move(index);
}

Cost& CostLedger::cell(RowId row, Device device, Phase phase) {
  const int cell = kCellOf[static_cast<std::size_t>(device)]
                          [static_cast<std::size_t>(phase)];
  GHS_REQUIRE(cell >= 0, "no " << device_name(device) << " "
                               << phase_name(phase) << " charges");
  return rows_[row].cells[cell];
}

void CostLedger::add_busy(Row& row, SimTime time_ps) {
  if (row.tenant_tally == kNoTally) {
    const auto [it, inserted] = tenant_tally_of_.try_emplace(
        row.tenant, static_cast<std::uint32_t>(tenant_busy_.size()));
    if (inserted) tenant_busy_.push_back({row.tenant, 0});
    row.tenant_tally = it->second;
  }
  tenant_busy_[row.tenant_tally].busy_ps += time_ps;
  std::uint32_t& op_tally = op_tally_of_[row.op];
  if (op_tally == kNoTally) {
    op_tally = static_cast<std::uint32_t>(op_busy_.size());
    op_busy_.push_back({row.op, 0});
  }
  op_busy_[op_tally].busy_ps += time_ps;
}

void CostLedger::charge_time(RowId row, Device device, Phase phase,
                             SimTime time_ps) {
  if (time_ps <= 0) return;
  Cost& cost = cell(row, device, phase);
  if (cost.events++ == 0) ++entries_;
  cost.time_ps += time_ps;
  // Waits name no device and are not busy time.
  if (device == Device::kNone) return;
  (device == Device::kGpu ? attributed_.gpu_busy_ps
                          : attributed_.cpu_busy_ps) += time_ps;
  add_busy(rows_[row], time_ps);
}

void CostLedger::charge_bytes(RowId row, Device device, Phase phase,
                              Bytes bytes) {
  if (bytes <= 0) return;
  Cost& cost = cell(row, device, phase);
  if (cost.events++ == 0) ++entries_;
  cost.bytes += bytes;
  switch (phase) {
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

std::vector<std::pair<CostKey, Cost>> CostLedger::entries() const {
  std::vector<RowId> order(rows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<RowId>(i);
  }
  std::sort(order.begin(), order.end(), [this](RowId a, RowId b) {
    const Row& x = rows_[a];
    const Row& y = rows_[b];
    if (x.tenant != y.tenant) return x.tenant < y.tenant;
    if (x.op != y.op) return x.op < y.op;
    return x.node < y.node;
  });
  std::vector<std::pair<CostKey, Cost>> sorted;
  sorted.reserve(entries_);
  for (const RowId id : order) {
    const Row& r = rows_[id];
    for (const std::size_t cell : kReportOrder) {
      if (r.cells[cell].events == 0) continue;
      sorted.push_back({{r.tenant, r.op, r.node, kCellSpecs[cell].device,
                         kCellSpecs[cell].phase},
                        r.cells[cell]});
    }
  }
  return sorted;
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

  const std::vector<std::pair<CostKey, Cost>> sorted = entries();
  const auto ms = [](SimTime t) { return Fixed{to_millis(t), 6}; };

  Writer w(os);
  w << "{\"entries\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const auto& [key, cost] = sorted[i];
    if (i > 0) w << ",";
    w << "{\"tenant\":" << key.tenant << ",\"op\":\"" << op_name(key.op)
      << "\",\"node\":" << key.node << ",\"device\":\""
      << device_name(key.device) << "\",\"phase\":\"" << phase_name(key.phase)
      << "\",\"time_ms\":" << ms(cost.time_ps) << ",\"bytes\":" << cost.bytes
      << ",\"events\":" << cost.events << "}";
  }
  const auto pair = [&](const char* name, std::int64_t attributed,
                        std::int64_t telemetry_value) {
    w << "\"" << name << "\":{\"attributed\":" << attributed
      << ",\"telemetry\":" << telemetry_value << "},";
  };
  w << "],\"totals\":{\"gpu_busy_ms\":" << ms(attributed_.gpu_busy_ps)
    << ",\"cpu_busy_ms\":" << ms(attributed_.cpu_busy_ps)
    << ",\"um_bytes\":" << attributed_.um_bytes
    << ",\"transfer_bytes\":" << attributed_.transfer_bytes
    << ",\"replay_bytes\":" << attributed_.replay_bytes
    << "},\"conservation\":{";
  pair("gpu_busy_ps", attributed_.gpu_busy_ps, telemetry.gpu_busy_ps);
  pair("cpu_busy_ps", attributed_.cpu_busy_ps, telemetry.cpu_busy_ps);
  pair("um_bytes", attributed_.um_bytes, telemetry.um_bytes);
  pair("transfer_bytes", attributed_.transfer_bytes, telemetry.transfer_bytes);
  pair("replay_bytes", attributed_.replay_bytes, telemetry.replay_bytes);
  w << "\"ok\":" << (conservation.ok() ? "true" : "false") << "}}";
}

void CostLedger::write_table(std::ostream& os, std::size_t top_k) const {
  Writer w(os);
  const auto ms = [](SimTime t) { return Fixed{to_millis(t), 3}; };
  const auto print_top = [&](const char* what, std::vector<Busy> busy,
                             const auto& label_of) {
    // Biggest spenders first; ties in id order.
    std::sort(busy.begin(), busy.end(), [](const Busy& a, const Busy& b) {
      return a.busy_ps != b.busy_ps ? a.busy_ps > b.busy_ps : a.id < b.id;
    });
    if (busy.size() > top_k) busy.resize(top_k);
    for (const auto& [id, time_ps] : busy) {
      w << "  " << pad_right(what, 8) << " " << pad_right(label_of(id), 16)
        << " busy " << pad_left(format_fixed(to_millis(time_ps), 3), 10)
        << "ms\n";
    }
  };
  w << "cost attribution: gpu " << ms(attributed_.gpu_busy_ps) << "ms cpu "
    << ms(attributed_.cpu_busy_ps) << "ms, um " << attributed_.um_bytes
    << " B, interconnect " << attributed_.transfer_bytes << " B, replay "
    << attributed_.replay_bytes << " B\n";
  print_top("tenant", tenant_busy_, [](std::int64_t tenant) {
    return "tenant " + std::to_string(tenant);
  });
  print_top("op", op_busy_, [](std::int64_t op) {
    return std::string(op_name(static_cast<std::uint8_t>(op)));
  });
}

}  // namespace ghs::profile
