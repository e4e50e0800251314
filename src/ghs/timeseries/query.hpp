// SlidingWindow, the primitive the slo::Monitor burn-rate sweep runs on.
//
// SlidingWindow replaces ad-hoc two-pointer bookkeeping: push samples in
// time order and the window keeps exactly the entries with
// at > now - window, maintaining a running sum and count. For the 0/1
// samples the SLO monitor feeds it the running sum is exact (small
// integers in doubles), so the refactored monitor reproduces its previous
// reports byte for byte.
#pragma once

#include <cstdint>
#include <deque>

#include "ghs/timeseries/tsdb.hpp"

namespace ghs::timeseries {

/// A time-sliding window over a stream of (at, value) samples pushed in
/// non-decreasing time order. After push(at, v) the window holds every
/// sample with timestamp in (at - window, at].
class SlidingWindow {
 public:
  explicit SlidingWindow(SimTime window);

  void push(SimTime at, double value);

  SimTime window() const { return window_; }
  std::int64_t count() const {
    return static_cast<std::int64_t>(samples_.size());
  }
  /// Running sum of the windowed values. Exact for integer-valued samples
  /// (the SLO monitor's 0/1 stream); subject to the usual floating-point
  /// cancellation otherwise.
  double sum() const { return sum_; }
  double mean() const {
    return samples_.empty() ? 0.0
                            : sum_ / static_cast<double>(samples_.size());
  }

 private:
  SimTime window_;
  std::deque<Sample> samples_;
  double sum_ = 0.0;
};

}  // namespace ghs::timeseries
