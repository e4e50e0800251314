#include "ghs/sim/simulator.hpp"

#include <limits>
#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::sim {

void Simulator::schedule_at(SimTime t, Event fn) {
  GHS_REQUIRE(t >= now_, "cannot schedule into the past: t=" << t
                                                             << " now=" << now_);
  std::uint32_t slot;
  if (free_.empty()) {
    GHS_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
              "event slots exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({t, next_seq_++, std::move(fn)});
  } else {
    slot = free_.back();
    free_.pop_back();
    Slot& s = slots_[slot];
    s.time = t;
    s.seq = next_seq_++;
    s.fn = std::move(fn);
  }
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_queue_size_) peak_queue_size_ = heap_.size();
}

void Simulator::schedule_after(SimTime dt, Event fn) {
  GHS_REQUIRE(dt >= 0, "negative delay " << dt);
  schedule_at(now_ + dt, std::move(fn));
}

void Simulator::advance_to(SimTime t) {
  GHS_CHECK(t >= now_, "clock would move backwards");
  if (advanced_counter_ != nullptr) advanced_counter_->inc(t - now_);
  now_ = t;
}

void Simulator::sift_up(std::size_t index) {
  const std::uint32_t slot = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = slot;
}

void Simulator::sift_down(std::size_t index) {
  const std::uint32_t slot = heap_[index];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * index + 1;
    if (child >= size) break;
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], slot)) break;
    heap_[index] = heap_[child];
    index = child;
  }
  heap_[index] = slot;
}

std::size_t Simulator::drain_batch() {
  if (heap_.empty()) return 0;
  // Steal the scratch buffer so a handler that re-enters the simulator
  // cannot clobber the batch mid-dispatch; hand the capacity back at the
  // end so steady-state batches never allocate.
  std::vector<Event> batch = std::move(batch_);
  batch.clear();
  const SimTime t = slots_[heap_.front()].time;
  advance_to(t);
  const std::size_t processed_before = events_processed_;
  do {
    // Pop the whole (time == t) run, moving each event straight into the
    // batch; its slot is free for the handlers below to reuse.
    do {
      const std::uint32_t slot = heap_.front();
      heap_.front() = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
      batch.push_back(std::move(slots_[slot].fn));
      free_.push_back(slot);
    } while (!heap_.empty() && slots_[heap_.front()].time == t);
    if (events_counter_ != nullptr) {
      events_counter_->inc(static_cast<std::int64_t>(batch.size()));
    }
    events_processed_ += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      last_of_batch_ = i + 1 == batch.size();
      batch[i]();
    }
    last_of_batch_ = false;
    batch.clear();
    // Handlers may schedule more work at the current time; those events
    // carry higher seq numbers than everything just run, so the next
    // round keeps exact (time, seq) order.
  } while (!heap_.empty() && slots_[heap_.front()].time == t);
  batch_ = std::move(batch);
  return events_processed_ - processed_before;
}

bool Simulator::dispatch_inline(SimTime t) {
  GHS_REQUIRE(t > now_, "inline event at t=" << t << " now=" << now_);
  if (!last_of_batch_) return false;
  if (!heap_.empty() && slots_[heap_.front()].time <= t) return false;
  // The bookkeeping of a schedule_at(t) followed by its own drain_batch.
  if (heap_.size() + 1 > peak_queue_size_) peak_queue_size_ = heap_.size() + 1;
  advance_to(t);
  if (events_counter_ != nullptr) events_counter_->inc();
  ++events_processed_;
  return true;
}

void Simulator::run() {
  while (drain_batch() > 0) {
  }
}

void Simulator::set_telemetry(telemetry::Registry* registry) {
  if (registry == nullptr) {
    events_counter_ = nullptr;
    advanced_counter_ = nullptr;
    return;
  }
  events_counter_ = &registry->counter(
      "ghs_sim_events_total", {}, "Discrete events executed by the simulator");
  advanced_counter_ = &registry->counter(
      "ghs_sim_advanced_ps_total", {},
      "Simulated picoseconds the event clock has advanced");
}

}  // namespace ghs::sim
