#include "ghs/timeseries/query.hpp"

#include "ghs/util/error.hpp"

namespace ghs::timeseries {

SlidingWindow::SlidingWindow(SimTime window) : window_(window) {
  GHS_REQUIRE(window > 0, "sliding window must be positive");
}

void SlidingWindow::push(SimTime at, double value) {
  GHS_REQUIRE(samples_.empty() || at >= samples_.back().at,
              "sliding window pushed out of order at " << at);
  samples_.push_back(Sample{at, value});
  sum_ += value;
  while (samples_.front().at <= at - window_) {
    sum_ -= samples_.front().value;
    samples_.pop_front();
  }
}

}  // namespace ghs::timeseries
