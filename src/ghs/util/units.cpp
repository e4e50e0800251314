#include "ghs/util/units.hpp"

#include "ghs/util/strings.hpp"

namespace ghs {

namespace {

std::string format_with(double value, const char* unit) {
  return format_fixed(value, 3) + " " + unit;
}

}  // namespace

std::string format_time(SimTime t) {
  const double ps = static_cast<double>(t);
  if (t < kNanosecond) return format_with(ps, "ps");
  if (t < kMicrosecond) return format_with(ps / 1e3, "ns");
  if (t < kMillisecond) return format_with(ps / 1e6, "us");
  if (t < kSecond) return format_with(ps / 1e9, "ms");
  return format_with(ps / 1e12, "s");
}

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (b < kKiB) return format_with(v, "B");
  if (b < kMiB) return format_with(v / static_cast<double>(kKiB), "KiB");
  if (b < kGiB) return format_with(v / static_cast<double>(kMiB), "MiB");
  return format_with(v / static_cast<double>(kGiB), "GiB");
}

std::string format_bandwidth(Bandwidth bw) {
  return format_fixed(bw.gbps(), 1) + " GB/s";
}

}  // namespace ghs
