// BoundedRing: how the recorders (trace::Tracer's spans and instants,
// telemetry::FlightRecorder's events) retain entries. It holds the last
// `capacity` appended; once full, an append overwrites the oldest entry
// and counts it as dropped, so a recorder's memory stays bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ghs {

template <class T>
class BoundedRing {
 public:
  /// `capacity` must be positive; the owner checks it.
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  /// The entry the next append fills in: a new one until the ring is
  /// full, then the oldest.
  T& append() {
    ++total_;
    if (items_.size() < capacity_) return items_.emplace_back();
    T& oldest = items_[next_];
    if (++next_ == capacity_) next_ = 0;
    return oldest;
  }

  /// Calls `f` on every held entry, oldest first.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = next_; i < items_.size(); ++i) f(items_[i]);
    for (std::size_t i = 0; i < next_; ++i) f(items_[i]);
  }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries ever appended, and those of them lost to the bound.
  std::int64_t total() const { return total_; }
  std::int64_t dropped() const {
    return total_ - static_cast<std::int64_t>(items_.size());
  }

  /// Allocates every entry's room now instead of as the ring fills.
  void reserve() { items_.reserve(capacity_); }
  /// Empties the ring and zeroes its counts.
  void clear() {
    items_.clear();
    next_ = 0;
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;  // grows to capacity_, then wraps
  std::size_t next_ = 0;  // items_[next_] is the oldest once wrapped
  std::int64_t total_ = 0;
};

}  // namespace ghs
