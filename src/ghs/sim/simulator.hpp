// Discrete-event simulator: a monotone clock plus one event queue. All
// substrate models (memory system, GPU, CPU, UM migration engine) schedule
// work here; nothing in the repository reads wall-clock time.
//
// The queue is a binary min-heap of 32-bit slot indices ordered by
// (time, insertion seq): events at equal times dispatch in the order they
// were scheduled, so a run's output is a pure function of its inputs. The
// events themselves sit in a plain vector of slots recycled through a free
// list, so sift operations move 4-byte indices and a steady-state run
// allocates nothing per event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ghs/sim/event.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/units.hpp"

namespace ghs::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now()).
  void schedule_at(SimTime t, Event fn);

  /// Schedules `fn` after a delay of `dt` picoseconds.
  void schedule_after(SimTime dt, Event fn);

  /// Runs until the event queue drains.
  void run();

  /// Advances the clock once and dispatches every event scheduled at that
  /// timestamp — including events a handler schedules at the (new) current
  /// time, which run in the same batch after the existing ones, exactly as
  /// (time, seq) order puts them. Returns the number of events executed
  /// (0 when the queue is empty).
  std::size_t drain_batch();

  std::size_t events_processed() const { return events_processed_; }
  bool idle() const { return heap_.empty(); }

  /// High-water mark of the pending-event count, updated at push.
  std::size_t peak_queue_size() const { return peak_queue_size_; }

  /// Registers the event/clock counters (null disables). Counters are
  /// shared by identity, so platforms wired to one registry accumulate.
  void set_telemetry(telemetry::Registry* registry);

 private:
  struct Slot {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Event fn;
  };

  bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.time != y.time ? x.time < y.time : x.seq < y.seq;
  }
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  void advance_to(SimTime t);

  SimTime now_ = 0;
  std::vector<Slot> slots_;
  /// Slots whose event has been dispatched, reused before slots_ grows.
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> heap_;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> batch_;
  std::size_t events_processed_ = 0;
  std::size_t peak_queue_size_ = 0;
  telemetry::Counter* events_counter_ = nullptr;
  telemetry::Counter* advanced_counter_ = nullptr;
};

}  // namespace ghs::sim
