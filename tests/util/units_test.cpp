#include "ghs/util/units.hpp"

#include <gtest/gtest.h>

namespace ghs {
namespace {

TEST(UnitsTest, TimeConstantsAreConsistent) {
  EXPECT_EQ(kNanosecond, 1000 * kPicosecond);
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(UnitsTest, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(UnitsTest, Millis) {
  EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(1500 * kMicrosecond), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_millis(kPicosecond), 1e-9);
  EXPECT_DOUBLE_EQ(to_millis(0), 0.0);
}

TEST(UnitsTest, FromSecondsRejectsNegativeAndNan) {
  EXPECT_THROW(from_seconds(-1.0), Error);
  EXPECT_THROW(from_seconds(std::nan("")), Error);
}

TEST(UnitsTest, FromNanoseconds) {
  EXPECT_EQ(from_nanoseconds(1.0), kNanosecond);
  EXPECT_EQ(from_nanoseconds(0.5), 500);
}

TEST(UnitsTest, BandwidthGbpsRoundTrip) {
  const Bandwidth bw = Bandwidth::from_gbps(4022.7);
  EXPECT_DOUBLE_EQ(bw.gbps(), 4022.7);
  EXPECT_DOUBLE_EQ(bw.bytes_per_second, 4022.7e9);
}

TEST(UnitsTest, TransferTimeBasic) {
  // 1 GB at 1 GB/s = 1 second.
  EXPECT_EQ(transfer_time(1'000'000'000, Bandwidth::from_gbps(1.0)), kSecond);
}

TEST(UnitsTest, TransferTimeZeroBytesIsZero) {
  EXPECT_EQ(transfer_time(0, Bandwidth::from_gbps(1.0)), 0);
}

TEST(UnitsTest, TransferTimeNeverZeroForNonzeroBytes) {
  // One byte at an enormous rate still takes >= 1 ps.
  EXPECT_GE(transfer_time(1, Bandwidth::from_gbps(1e9)), 1);
}

TEST(UnitsTest, TransferTimeRejectsBadInput) {
  EXPECT_THROW(transfer_time(-1, Bandwidth::from_gbps(1.0)), Error);
  EXPECT_THROW(transfer_time(1, Bandwidth{0.0}), Error);
}

TEST(UnitsTest, AchievedBandwidthInvertsTransferTime) {
  const Bytes bytes = 4LL * 1000 * 1000 * 1000;
  const Bandwidth bw = Bandwidth::from_gbps(500.0);
  const SimTime t = transfer_time(bytes, bw);
  EXPECT_NEAR(achieved_bandwidth(bytes, t).gbps(), 500.0, 0.01);
}

TEST(UnitsTest, AchievedBandwidthRejectsZeroTime) {
  EXPECT_THROW(achieved_bandwidth(100, 0), Error);
}

TEST(UnitsTest, FormatTimePicksUnit) {
  EXPECT_EQ(format_time(500), "500.000 ps");
  EXPECT_EQ(format_time(1500), "1.500 ns");
  EXPECT_EQ(format_time(2 * kMicrosecond), "2.000 us");
  EXPECT_EQ(format_time(3 * kMillisecond), "3.000 ms");
  EXPECT_EQ(format_time(4 * kSecond), "4.000 s");
}

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(format_bytes(512), "512.000 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.000 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.000 MiB");
  EXPECT_EQ(format_bytes(4 * kGiB), "4.000 GiB");
}

TEST(UnitsTest, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(Bandwidth::from_gbps(4022.7)), "4022.7 GB/s");
}

}  // namespace
}  // namespace ghs
