// Serial FIFO server: models a strictly serializing hardware unit, the
// GPU's atomic/reduction combine path to a single address. Submissions are
// served one at a time in arrival order; submit_batch() is purely
// arithmetic (no event needed) and returns the completion time, which
// callers fold into their own event scheduling.
#pragma once

#include <cstdint>

#include "ghs/util/units.hpp"

namespace ghs::sim {

class SerialServer {
 public:
  /// Enqueues `count` back-to-back units of `service` each, arriving at
  /// `now` (a whole wave of CTAs issues its combine atomics together).
  /// Returns the absolute time the last one completes.
  SimTime submit_batch(SimTime now, SimTime service, std::int64_t count);

  /// Earliest time a new arrival would start service.
  SimTime available_at() const { return available_at_; }

  /// Total busy time accumulated.
  SimTime busy_time() const { return busy_time_; }

  std::int64_t completed() const { return completed_; }

  /// Stands in for `k` more runs like the one since `since` (this server
  /// as it was then), each `dt` long: busy time and completions move on by
  /// k times what that run added and, if the run used the unit, so does
  /// its availability, by k * dt. Throws OverflowError when one would pass
  /// its range.
  void fast_forward(const SerialServer& since, SimTime dt, std::int64_t k);

 private:
  SimTime available_at_ = 0;
  SimTime busy_time_ = 0;
  std::int64_t completed_ = 0;
};

}  // namespace ghs::sim
