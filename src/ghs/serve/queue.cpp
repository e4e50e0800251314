#include "ghs/serve/queue.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"

namespace ghs::serve {

const char* placement_name(Placement placement) {
  return placement == Placement::kGpu ? "GPU" : "CPU";
}

AdmissionQueue::AdmissionQueue(std::size_t max_depth)
    : max_depth_(max_depth) {
  GHS_REQUIRE(max_depth > 0, "max_depth=" << max_depth);
  jobs_.reserve(max_depth_);
}

bool AdmissionQueue::push(const Job& job) {
  GHS_REQUIRE(job.elements > 0, "job " << job.id << " has no elements");
  if (jobs_.size() >= max_depth_) return false;
  jobs_.push_back(job);
  high_watermark_ = std::max(high_watermark_, jobs_.size());
  return true;
}

Job AdmissionQueue::take(std::size_t index) {
  GHS_REQUIRE(index < jobs_.size(),
              "take(" << index << ") of " << jobs_.size());
  Job job = jobs_[index];
  jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(index));
  return job;
}

const Job& AdmissionQueue::at(std::size_t index) const {
  GHS_REQUIRE(index < jobs_.size(), "at(" << index << ") of " << jobs_.size());
  return jobs_[index];
}

}  // namespace ghs::serve
