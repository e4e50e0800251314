// Bounded admission queue with explicit backpressure: push() refuses work
// beyond `max_depth` and the caller surfaces the rejection to the tenant
// (there is no hidden unbounded buffer anywhere in the serve layer).
// Scheduler policies read the queue by index and take() the job they chose,
// so arrival order is preserved for the jobs left behind.
#pragma once

#include <cstddef>
#include <vector>

#include "ghs/serve/job.hpp"

namespace ghs::serve {

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t max_depth);

  /// Admits the job unless the queue is at max depth; returns whether the
  /// job was admitted.
  bool push(const Job& job);

  /// Removes and returns the job at position `index` (arrival order).
  Job take(std::size_t index);

  const Job& at(std::size_t index) const;
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  std::size_t max_depth() const { return max_depth_; }

  /// Deepest the queue has ever been (backpressure diagnostics).
  std::size_t high_watermark() const { return high_watermark_; }

 private:
  std::size_t max_depth_;
  /// Bounded by max_depth_, so the vector reserves its whole capacity up
  /// front and never reallocates while serving.
  std::vector<Job> jobs_;
  std::size_t high_watermark_ = 0;
};

}  // namespace ghs::serve
