#include "ghs/profile/cost_ledger.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <sstream>
#include <vector>

#include "ghs/util/error.hpp"

namespace ghs::profile {
namespace {

std::vector<std::int64_t> split_proportional(
    std::int64_t total, const std::vector<std::int64_t>& weights) {
  ProportionalSplit split(
      total, std::accumulate(weights.begin(), weights.end(), std::int64_t{0}),
      weights.size());
  std::vector<std::int64_t> shares;
  for (const std::int64_t w : weights) shares.push_back(split.next(w));
  return shares;
}

TEST(SplitProportionalTest, SharesSumToTotalExactly) {
  const std::vector<std::int64_t> weights = {7, 13, 1, 29, 5};
  const auto shares = split_proportional(1000003, weights);
  ASSERT_EQ(shares.size(), weights.size());
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::int64_t{0}),
            1000003);
  // Shares track the weight ordering.
  EXPECT_GT(shares[3], shares[1]);
  EXPECT_GT(shares[1], shares[0]);
  EXPECT_GT(shares[0], shares[2]);
}

TEST(SplitProportionalTest, ZeroWeightsSplitEvenly) {
  const auto shares = split_proportional(10, {0, 0, 0});
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::int64_t{0}),
            10);
  for (const auto share : shares) {
    EXPECT_GE(share, 3);
    EXPECT_LE(share, 4);
  }
}

TEST(SplitProportionalTest, ProductsPast64BitsStayExact) {
  // A 2^39-element job served for 0.15 s: total * weight overflows int64.
  const std::int64_t total = 151523103637;
  const std::int64_t big = std::int64_t{1} << 39;
  const auto one = split_proportional(total, {big});
  EXPECT_EQ(one, std::vector<std::int64_t>{total});
  const auto halves = split_proportional(total, {big, big});
  EXPECT_EQ(halves, (std::vector<std::int64_t>{total / 2, total - total / 2}));
  const auto thirds = split_proportional(total, {big, 2 * big, 3 * big});
  EXPECT_EQ(thirds[0] + thirds[1] + thirds[2], total);
  EXPECT_EQ(thirds[0], total / 6);
}

TEST(SplitProportionalTest, ExhaustiveSmallTotalsNeverDrift) {
  // Property sweep: every (total, weights) pair must conserve exactly.
  const std::vector<std::vector<std::int64_t>> weight_sets = {
      {1}, {1, 1}, {1, 2, 3}, {1000000, 1}, {3, 0, 5}};
  for (std::int64_t total = 0; total <= 50; ++total) {
    for (const auto& weights : weight_sets) {
      const auto shares = split_proportional(total, weights);
      EXPECT_EQ(
          std::accumulate(shares.begin(), shares.end(), std::int64_t{0}),
          total)
          << "total=" << total;
    }
  }
}

/// The charges of `key`, or nothing when it was never charged.
std::optional<Cost> cost_of(const CostLedger& ledger, const CostKey& key) {
  for (const auto& [k, cost] : ledger.entries()) {
    if (k == key) return cost;
  }
  return std::nullopt;
}

/// A tenant's or op's busy time from the ledger's busy list; 0 if absent.
SimTime busy_of(const std::vector<CostLedger::Busy>& busy, std::int64_t id) {
  for (const auto& [busy_id, busy_ps] : busy) {
    if (busy_id == id) return busy_ps;
  }
  return 0;
}

CostKey gpu_kernel_key(std::int64_t tenant) {
  CostKey key;
  key.tenant = tenant;
  key.op = 1;
  key.device = Device::kGpu;
  key.phase = Phase::kGpuKernel;
  return key;
}

TEST(CostLedgerTest, ChargesAccumulatePerKey) {
  CostLedger ledger;
  ledger.charge_time(gpu_kernel_key(1), 100);
  ledger.charge_time(gpu_kernel_key(1), 50);
  ledger.charge_time(gpu_kernel_key(2), 25);
  ASSERT_EQ(ledger.entries().size(), 2u);
  EXPECT_EQ(cost_of(ledger, gpu_kernel_key(1))->time_ps, 150);
  EXPECT_EQ(cost_of(ledger, gpu_kernel_key(1))->events, 2);
  EXPECT_EQ(cost_of(ledger, gpu_kernel_key(2))->time_ps, 25);
  EXPECT_FALSE(cost_of(ledger, gpu_kernel_key(3)).has_value());
  EXPECT_EQ(busy_of(ledger.tenant_busy(), 1), 150);
  EXPECT_EQ(busy_of(ledger.tenant_busy(), 2), 25);
  EXPECT_EQ(busy_of(ledger.op_busy(), 1), 175);
}

TEST(CostLedgerTest, ChargesNameTheDeviceTheirPhaseRunsOn) {
  CostLedger ledger;
  CostKey key = gpu_kernel_key(1);
  key.device = Device::kCpu;  // a CPU cannot run a GPU kernel
  EXPECT_THROW(ledger.charge_time(key, 10), Error);
  key.device = Device::kNone;
  key.phase = Phase::kTransfer;
  ledger.charge_bytes(key, 10);
  key.phase = Phase::kLaunchFailed;  // failures name their device
  EXPECT_THROW(ledger.charge_time(key, 10), Error);
  EXPECT_EQ(ledger.entries().size(), 1u);
}

TEST(CostLedgerTest, ManyRowsStayFindableAndSorted) {
  // Enough (tenant, op, node) rows to grow the row index several times;
  // inserted in a scrambled order.
  CostLedger ledger;
  std::int64_t expected_bytes = 0;
  for (std::int64_t i = 0; i < 5000; ++i) {
    const std::int64_t scrambled = (i * 7919) % 5000;
    CostKey key;
    key.tenant = scrambled / 40;
    key.op = static_cast<std::uint8_t>(scrambled % 4);
    key.node = static_cast<std::int16_t>((scrambled / 4) % 10);
    key.device = Device::kGpu;
    key.phase = Phase::kUmMigrate;
    ledger.charge_time(key, scrambled + 1);
    ledger.charge_bytes(key, 2 * (scrambled + 1));
    expected_bytes += 2 * (scrambled + 1);
  }
  const auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 5000u);
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, cost] = entries[i];
    EXPECT_EQ(cost.events, 2);
    EXPECT_EQ(cost.bytes, 2 * cost.time_ps);
    bytes += cost.bytes;
    if (i == 0) continue;
    const CostKey& prev = entries[i - 1].first;
    EXPECT_TRUE(prev.tenant != key.tenant ? prev.tenant < key.tenant
                : prev.op != key.op       ? prev.op < key.op
                                          : prev.node < key.node);
  }
  EXPECT_EQ(bytes, expected_bytes);
  ConservationTotals telemetry;
  telemetry.um_bytes = expected_bytes;
  telemetry.gpu_busy_ps = expected_bytes / 2;
  EXPECT_TRUE(ledger.check(telemetry).ok());
}

TEST(CostLedgerTest, WaitPhasesStayOutOfBusyTotals) {
  CostLedger ledger;
  CostKey wait;
  wait.tenant = 3;
  wait.phase = Phase::kQueueWait;  // device kNone
  ledger.charge_time(wait, 1000);
  EXPECT_EQ(cost_of(ledger, wait)->time_ps, 1000);
  EXPECT_TRUE(ledger.tenant_busy().empty());
  EXPECT_TRUE(ledger.op_busy().empty());
  ConservationTotals telemetry;  // all zero
  EXPECT_TRUE(ledger.check(telemetry).ok());
}

TEST(CostLedgerTest, CheckFlagsLeakedTime) {
  CostLedger ledger;
  ledger.charge_time(gpu_kernel_key(1), 100);
  ConservationTotals telemetry;
  telemetry.gpu_busy_ps = 100;
  EXPECT_TRUE(ledger.check(telemetry).ok());
  // One-tick tolerance covers integer rounding at charge sites...
  telemetry.gpu_busy_ps = 101;
  EXPECT_TRUE(ledger.check(telemetry).ok());
  // ...but a real leak fails.
  telemetry.gpu_busy_ps = 150;
  EXPECT_FALSE(ledger.check(telemetry).ok());
}

TEST(CostLedgerTest, CheckFlagsLeakedBytes) {
  CostLedger ledger;
  CostKey transfer;
  transfer.tenant = 1;
  transfer.phase = Phase::kTransfer;
  ledger.charge_bytes(transfer, 4096);
  ConservationTotals telemetry;
  telemetry.transfer_bytes = 4096;
  EXPECT_TRUE(ledger.check(telemetry).ok());
  // Bytes are exact: even one off fails.
  telemetry.transfer_bytes = 4097;
  EXPECT_FALSE(ledger.check(telemetry).ok());
}

TEST(CostLedgerTest, StealDrainAndReplayBytesBucketCorrectly) {
  CostLedger ledger;
  CostKey key;
  key.tenant = 1;
  key.phase = Phase::kSteal;
  ledger.charge_bytes(key, 100);
  key.phase = Phase::kDrain;
  ledger.charge_bytes(key, 200);
  key.phase = Phase::kReplay;
  ledger.charge_bytes(key, 300);
  ConservationTotals telemetry;
  telemetry.transfer_bytes = 300;  // steal + drain
  telemetry.replay_bytes = 300;
  EXPECT_TRUE(ledger.check(telemetry).ok());
}

TEST(CostLedgerTest, JsonIsDeterministicAndSorted) {
  const auto build = [](CostLedger& ledger) {
    // Insertion order differs between the two ledgers; output must not.
    ledger.charge_time(gpu_kernel_key(2), 50);
    ledger.charge_time(gpu_kernel_key(1), 100);
  };
  const auto render = [](const CostLedger& ledger) {
    ConservationTotals telemetry;
    telemetry.gpu_busy_ps = 150;
    std::ostringstream os;
    ledger.write_json(os, telemetry);
    return os.str();
  };
  CostLedger a;
  build(a);
  CostLedger b;
  b.charge_time(gpu_kernel_key(1), 100);
  b.charge_time(gpu_kernel_key(2), 50);
  EXPECT_EQ(render(a), render(b));
  const std::string json = render(a);
  // tenant 1 sorts before tenant 2.
  EXPECT_LT(json.find("\"tenant\":1"), json.find("\"tenant\":2"));
  EXPECT_NE(json.find("\"conservation\":"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
}

TEST(CostLedgerTest, TableListsTopSpenders) {
  CostLedger ledger;
  ledger.charge_time(gpu_kernel_key(7), 5 * kMillisecond);
  ledger.charge_time(gpu_kernel_key(8), 1 * kMillisecond);
  std::ostringstream os;
  ledger.write_table(os, 1);
  const std::string table = os.str();
  EXPECT_NE(table.find("tenant 7"), std::string::npos);
  // top_k=1 keeps the smaller spender out.
  EXPECT_EQ(table.find("tenant 8"), std::string::npos);
}

TEST(CostLedgerTest, PhaseAndDeviceNamesAreStable) {
  // These strings are documented in docs/OBSERVABILITY.md and appear in
  // folded stacks; renaming one silently breaks downstream flamegraph
  // tooling, so pin them.
  EXPECT_STREQ(phase_name(Phase::kGpuKernel), "gpu.kernel");
  EXPECT_STREQ(phase_name(Phase::kCpuKernel), "cpu.reduce");
  EXPECT_STREQ(phase_name(Phase::kUmMigrate), "um.migrate");
  EXPECT_STREQ(phase_name(Phase::kQueueWait), "queue.wait");
  EXPECT_STREQ(phase_name(Phase::kRetryBackoff), "retry.backoff");
  EXPECT_STREQ(phase_name(Phase::kLaunchFailed), "launch.failed");
  EXPECT_STREQ(phase_name(Phase::kTransfer), "interconnect.transfer");
  EXPECT_STREQ(phase_name(Phase::kSteal), "interconnect.steal");
  EXPECT_STREQ(phase_name(Phase::kDrain), "interconnect.drain");
  EXPECT_STREQ(phase_name(Phase::kReplay), "journal.replay");
  EXPECT_STREQ(device_name(Device::kGpu), "gpu");
  EXPECT_STREQ(device_name(Device::kCpu), "cpu");
  EXPECT_STREQ(device_name(Device::kNone), "none");
}

}  // namespace
}  // namespace ghs::profile
