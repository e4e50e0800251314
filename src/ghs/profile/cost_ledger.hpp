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
// remainder folded in (ProportionalSplit), so per-key charges sum to the
// launch total with zero drift.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <utility>
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

/// Splits `total` across weights proportionally, integer-exact, one share
/// at a time: construct with the total, the weights' sum and their count,
/// then call next() once per weight, in order. The shares sum to `total`
/// with the rounding remainder folded into the largest-cumulative
/// positions; weights that sum to zero split evenly.
class ProportionalSplit {
 public:
  ProportionalSplit(std::int64_t total, std::int64_t weight_sum,
                    std::size_t count);
  std::int64_t next(std::int64_t weight);

 private:
  std::int64_t total_;
  std::int64_t weight_sum_;
  std::int64_t denom_;
  std::int64_t cumulative_ = 0;
  std::int64_t charged_ = 0;
};

/// The ledger is one flat table of rows, one per (tenant, op, node) that
/// was ever charged. A row holds a Cost cell for each (device, phase) pair
/// a charge can name, so every charge of one job lands in one row, and
/// the cells a launch touches (queue wait, kernel, migration) share its
/// first cache lines. An open-addressing index of row numbers finds a row;
/// charges through a RowId skip even that.
class CostLedger {
 public:
  using RowId = std::uint32_t;

  /// Busy time of one tenant or op (see tenant_busy()).
  struct Busy {
    std::int64_t id = 0;
    SimTime busy_ps = 0;
  };

  CostLedger();

  /// The row of (tenant, op, node), created on first use.
  RowId row(std::int64_t tenant, std::uint8_t op, std::int16_t node);

  /// Charges time or bytes to one cell; non-positive amounts are no-ops.
  /// The device must be the one `phase` runs on: kNone for the wait and
  /// interconnect phases, kGpu for gpu.kernel and um.migrate, kCpu for
  /// cpu.reduce, either for launch.failed.
  void charge_time(RowId row, Device device, Phase phase, SimTime time_ps);
  void charge_bytes(RowId row, Device device, Phase phase, Bytes bytes);
  void charge_time(const CostKey& key, SimTime time_ps) {
    charge_time(row(key.tenant, key.op, key.node), key.device, key.phase,
                time_ps);
  }
  void charge_bytes(const CostKey& key, Bytes bytes) {
    charge_bytes(row(key.tenant, key.op, key.node), key.device, key.phase,
                 bytes);
  }

  bool empty() const { return entries_ == 0; }
  /// Every charged key with its charges, sorted by (tenant, op, node,
  /// device, phase): the cost report's order.
  std::vector<std::pair<CostKey, Cost>> entries() const;

  /// Device-busy time (kGpuKernel/kUmMigrate/kLaunchFailed on the GPU,
  /// kCpuKernel/kLaunchFailed on the CPU) per tenant and per op, in the
  /// order each first became busy, maintained incrementally for the
  /// profiler's windowed series. The lists only grow.
  const std::vector<Busy>& tenant_busy() const { return tenant_busy_; }
  const std::vector<Busy>& op_busy() const { return op_busy_; }

  ConservationCheck check(const ConservationTotals& telemetry) const;

  /// The "cost_report" JSON object: sorted entries, attributed totals, and
  /// the conservation comparison. GHS_CHECKs conservation — a loadgen that
  /// prints a report with a leaky ledger aborts instead.
  void write_json(std::ostream& os, const ConservationTotals& telemetry) const;

  /// Human top-K summary (per-tenant and per-op device time, stderr).
  void write_table(std::ostream& os, std::size_t top_k) const;

  /// (device, phase) pairs a row has a cell for.
  static constexpr std::size_t kCells = 11;

 private:
  static constexpr std::uint32_t kNoTally = 0xFFFFFFFFu;

  struct Row {
    std::int64_t tenant = 0;
    std::int16_t node = 0;
    std::uint8_t op = 0;
    /// Index into tenant_busy_ once the row's tenant has been busy.
    std::uint32_t tenant_tally = kNoTally;
    Cost cells[kCells];
  };

  Cost& cell(RowId row, Device device, Phase phase);
  void add_busy(Row& row, SimTime time_ps);
  void grow_index();

  std::vector<Row> rows_;
  /// Open addressing, linear probing: row number + 1, 0 for a free slot.
  /// At most half full.
  std::vector<RowId> index_;
  /// Charged (row, cell) pairs: the report's entry count.
  std::size_t entries_ = 0;
  ConservationTotals attributed_;
  std::vector<Busy> tenant_busy_;
  std::vector<Busy> op_busy_;
  std::unordered_map<std::int64_t, std::uint32_t> tenant_tally_of_;
  /// op -> index into op_busy_, kNoTally until the op is busy.
  std::array<std::uint32_t, 256> op_tally_of_;
};

}  // namespace ghs::profile
