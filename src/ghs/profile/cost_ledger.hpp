// CostLedger: the attribution side of ghs::profile. Every
// resource-consuming interval the serving stack produces — GPU kernel
// time, CPU fallback time, unified-memory migration, queue wait, retry
// backoff, interconnect transfers, journal replays — is charged to a
// (tenant, op, node, device, phase) key as it happens, so an end-of-run
// report can answer "which tenant, op, or node is consuming the hardware".
//
// The ledger is conservation-checked: the attributed device time must
// equal the serving nodes' device busy-time totals exactly, and the
// attributed bytes must equal the interconnect + replay + unified-memory
// byte totals the telemetry layer already keeps. check() compares the two
// sides and the loadgens assert it at report time, so a charging-site
// regression fails loudly instead of silently skewing the per-tenant bill.
//
// Charging is integer-exact: a batched launch's service time is split
// across its jobs proportionally to element count with the rounding
// remainder folded in (split_proportional), so per-key charges sum to the
// launch total with zero drift.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <unordered_map>
#include <vector>

#include "ghs/util/units.hpp"

namespace ghs::profile {

/// Processor (or none, for waits) a charge is attributed to. kNone keys
/// never count toward the device-time conservation sums.
enum class Device : std::uint8_t { kNone = 0, kGpu = 1, kCpu = 2 };

const char* device_name(Device device);

/// Closed set of resource-consuming phases. Time phases: kQueueWait,
/// kGpuKernel, kUmMigrate, kCpuKernel, kLaunchFailed, kRetryBackoff.
/// Byte phases: kUmMigrate (managed-buffer migration), kTransfer /
/// kSteal / kDrain (interconnect moves), kReplay (journal replays).
enum class Phase : std::uint8_t {
  kQueueWait = 0,
  kGpuKernel = 1,
  kUmMigrate = 2,
  kCpuKernel = 3,
  kLaunchFailed = 4,
  kRetryBackoff = 5,
  kTransfer = 6,
  kSteal = 7,
  kDrain = 8,
  kReplay = 9,
};

const char* phase_name(Phase phase);

struct CostKey {
  std::int64_t tenant = 0;
  /// workload::CaseId underlying value; rendered via case_spec().name.
  std::uint8_t op = 0;
  std::int16_t node = 0;
  Device device = Device::kNone;
  Phase phase = Phase::kQueueWait;

  bool operator==(const CostKey&) const = default;
};

struct CostKeyHash {
  std::size_t operator()(const CostKey& key) const {
    // splitmix-style fold of the packed key; the ledger's hot path is one
    // lookup per charge, so mixing quality matters at million-job scale.
    std::uint64_t x = static_cast<std::uint64_t>(key.tenant) * 0x9e3779b97f4a7c15ULL;
    x ^= (static_cast<std::uint64_t>(key.op) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(key.node))
          << 16) |
         (static_cast<std::uint64_t>(key.device) << 8) |
         static_cast<std::uint64_t>(key.phase);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    return static_cast<std::size_t>(x);
  }
};

/// Accumulated charges for one key.
struct Cost {
  SimTime time_ps = 0;
  Bytes bytes = 0;
  /// Charge events folded into this entry (jobs, transfers, retries).
  std::int64_t events = 0;
};

/// Telemetry-side totals the ledger must reconcile against, gathered from
/// ReductionService::conservation_totals() / cluster counters by the
/// caller.
struct ConservationTotals {
  SimTime gpu_busy_ps = 0;
  SimTime cpu_busy_ps = 0;
  Bytes um_bytes = 0;
  Bytes transfer_bytes = 0;
  Bytes replay_bytes = 0;
};

/// One attributed-vs-telemetry comparison; conservation requires the two
/// sides to agree within kToleranceTicks (one sim-time tick, and bytes
/// exactly).
struct ConservationCheck {
  ConservationTotals attributed;
  ConservationTotals telemetry;
  static constexpr SimTime kToleranceTicks = 1;

  bool ok() const;
};

/// Splits `total` across `weights` proportionally, integer-exact: the
/// shares sum to `total` with the rounding remainder folded into the
/// largest-cumulative positions. Zero-weight inputs split evenly.
std::vector<std::int64_t> split_proportional(
    std::int64_t total, const std::vector<std::int64_t>& weights);

class CostLedger {
 public:
  void charge_time(const CostKey& key, SimTime time_ps);
  void charge_bytes(const CostKey& key, Bytes bytes);

  bool empty() const { return entries_.empty(); }
  const std::unordered_map<CostKey, Cost, CostKeyHash>& entries() const {
    return entries_;
  }

  /// Device-busy time (kGpuKernel/kUmMigrate/kLaunchFailed on the GPU,
  /// kCpuKernel/kLaunchFailed on the CPU) accumulated per tenant / per op,
  /// maintained incrementally for the profiler's windowed series.
  const std::map<std::int64_t, SimTime>& tenant_busy_ps() const {
    return tenant_busy_ps_;
  }
  const std::map<std::uint8_t, SimTime>& op_busy_ps() const {
    return op_busy_ps_;
  }

  ConservationCheck check(const ConservationTotals& telemetry) const;

  /// The "cost_report" JSON object: sorted entries, attributed totals, and
  /// the conservation comparison. GHS_CHECKs conservation — a loadgen that
  /// prints a report with a leaky ledger aborts instead.
  void write_json(std::ostream& os, const ConservationTotals& telemetry) const;

  /// Human top-K summary (per-tenant and per-op device time, stderr).
  void write_table(std::ostream& os, std::size_t top_k) const;

 private:
  std::unordered_map<CostKey, Cost, CostKeyHash> entries_;
  ConservationTotals attributed_;
  std::map<std::int64_t, SimTime> tenant_busy_ps_;
  std::map<std::uint8_t, SimTime> op_busy_ps_;
};

}  // namespace ghs::profile
