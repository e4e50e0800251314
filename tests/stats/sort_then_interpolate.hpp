// The reference for every exact-quantile test: the quantiles the selection
// code replaced, kept in full so a fault in the library's shared rank
// arithmetic cannot hide in both sides of a comparison.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ghs::test {

/// Sort a copy, then interpolate between ranks lo and lo + 1 as
/// stats::sorted_quantile() did.
inline std::vector<double> sort_then_interpolate(
    std::vector<double> values, const std::vector<double>& qs) {
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  for (double q : qs) {
    const double idx = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    out.push_back(values[lo] + (values[hi] - values[lo]) * frac);
  }
  return out;
}

/// A double's bits, for bit-for-bit comparisons.
inline std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

}  // namespace ghs::test
