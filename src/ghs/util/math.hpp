// Small integer-math helpers shared by the simulator and the runtime model.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "ghs/util/error.hpp"

namespace ghs {

/// ceil(a / b) for non-negative integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a + b - 1) / b;
}

/// True iff x is a power of two (zero is not).
template <typename T>
constexpr bool is_pow2(T x) {
  static_assert(std::is_integral_v<T>);
  return x > 0 && (x & (x - 1)) == 0;
}

/// Rounds x up to the next multiple of m (m > 0).
template <typename T>
constexpr T round_up(T x, T m) {
  return ceil_div(x, m) * m;
}

/// Integer log2 of a power of two.
template <typename T>
constexpr int log2_pow2(T x) {
  int n = 0;
  while (x > 1) {
    x >>= 1;
    ++n;
  }
  return n;
}

/// std::llround(x) for finite x >= 0, without the library call below 2^52.
/// There the spacing of doubles is at most 0.5, so x + 0.5 is exact or
/// rounds to a value with the same integer part, and truncation then
/// rounds half away from zero as llround does. The one double under 0.5
/// whose x + 0.5 rounds up to 1 is caught first.
inline std::int64_t round_nonneg(double x) {
  if (x < 0.5) return 0;
  if (x >= 0x1p52) return std::llround(x);
  return static_cast<std::int64_t>(x + 0.5);
}

/// Linear interpolation.
constexpr double lerp(double a, double b, double t) {
  return a + (b - a) * t;
}

/// Relative difference |a-b| / max(|a|,|b|,eps); used by float verification.
double relative_difference(double a, double b);

}  // namespace ghs
