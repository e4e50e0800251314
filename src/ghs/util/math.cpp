#include "ghs/util/math.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ghs {

std::int64_t repeated(std::int64_t value, std::int64_t k, std::int64_t delta,
                      const char* what) {
  std::int64_t step = 0;
  std::int64_t sum = 0;
  if (__builtin_mul_overflow(k, delta, &step) ||
      __builtin_add_overflow(value, step, &sum)) {
    std::ostringstream message;
    message << k << " repetitions adding " << delta << " each to " << value
            << " pass the 64-bit range of " << what;
    throw OverflowError(message.str());
  }
  return step;
}

double relative_difference(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

}  // namespace ghs
