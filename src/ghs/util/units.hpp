// Strong unit types used throughout the simulator.
//
// Simulated time is kept in integer picoseconds (SimTime) so that event
// ordering is exact and runs are bit-reproducible; bandwidths and byte
// counts are converted through double-precision only at the edges.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "ghs/util/error.hpp"

namespace ghs {

/// Simulated time in integer picoseconds. 2^63 ps ~ 106 days, far beyond any
/// experiment in this repository.
using SimTime = std::int64_t;

inline constexpr SimTime kPicosecond = 1;
inline constexpr SimTime kNanosecond = 1'000;
inline constexpr SimTime kMicrosecond = 1'000'000;
inline constexpr SimTime kMillisecond = 1'000'000'000;
inline constexpr SimTime kSecond = 1'000'000'000'000;

/// Converts simulated picoseconds to seconds (for reporting only).
constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Converts simulated picoseconds to milliseconds (for reporting only).
constexpr double to_millis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Converts seconds to simulated picoseconds, rounding to nearest.
inline SimTime from_seconds(double s) {
  GHS_REQUIRE(s >= 0.0 && std::isfinite(s), "seconds=" << s);
  return static_cast<SimTime>(std::llround(s * static_cast<double>(kSecond)));
}

/// Converts nanoseconds to simulated time.
constexpr SimTime from_nanoseconds(double ns) {
  return static_cast<SimTime>(ns * static_cast<double>(kNanosecond));
}

/// Byte count. Signed so that arithmetic on differences is safe.
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Bandwidth in bytes per (real, simulated) second. The paper reports GB/s
/// with the decimal convention (1 GB = 1e9 bytes); we follow that.
struct Bandwidth {
  double bytes_per_second = 0.0;

  static constexpr Bandwidth from_gbps(double gb_per_s) {
    return Bandwidth{gb_per_s * 1e9};
  }
  constexpr double gbps() const { return bytes_per_second / 1e9; }

  constexpr auto operator<=>(const Bandwidth&) const = default;
};

/// Time to move `bytes` at bandwidth `bw` (rounded up so a nonzero transfer
/// never takes zero simulated time).
inline SimTime transfer_time(Bytes bytes, Bandwidth bw) {
  GHS_REQUIRE(bytes >= 0, "bytes=" << bytes);
  GHS_REQUIRE(bw.bytes_per_second > 0.0, "bw=" << bw.bytes_per_second);
  if (bytes == 0) return 0;
  const double secs =
      static_cast<double>(bytes) / bw.bytes_per_second;
  const SimTime t = from_seconds(secs);
  return t > 0 ? t : 1;
}

/// Achieved bandwidth for `bytes` moved in simulated time `t`.
inline Bandwidth achieved_bandwidth(Bytes bytes, SimTime t) {
  GHS_REQUIRE(t > 0, "t=" << t);
  return Bandwidth{static_cast<double>(bytes) / to_seconds(t)};
}

/// Formats a simulated time with an adaptive unit, e.g. "1.234 ms".
std::string format_time(SimTime t);

/// Formats a byte count with an adaptive binary unit, e.g. "4.00 GiB".
std::string format_bytes(Bytes b);

/// Formats a bandwidth as "NNNN.N GB/s" (decimal GB, as in the paper).
std::string format_bandwidth(Bandwidth bw);

}  // namespace ghs
