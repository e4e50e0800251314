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
#include <utility>
#include <vector>

#include "ghs/sim/event.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/units.hpp"

namespace ghs::sim {

class Simulator {
 public:
  /// Registers the event/clock counters in `registry` (null disables).
  /// Counters are shared by identity, so simulators built on one registry
  /// accumulate.
  explicit Simulator(telemetry::Registry* registry = nullptr);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `t` (>= now()), building
  /// the callable in its event slot. A callable whose construction throws
  /// leaves the queue unchanged.
  template <typename F>
  void schedule_at(SimTime t, F&& fn) {
    const std::uint32_t slot = free_slot(t);
    slots_[slot].fn.emplace(std::forward<F>(fn));
    push(slot, t);
  }

  /// Schedules `fn` after a delay of `dt` picoseconds.
  template <typename F>
  void schedule_after(SimTime dt, F&& fn) {
    GHS_REQUIRE(dt >= 0, "negative delay " << dt);
    schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Runs until the event queue drains.
  void run();

  /// Advances the clock once and dispatches every event scheduled at that
  /// timestamp — including events a handler schedules at the (new) current
  /// time, which run in the same batch after the existing ones, exactly as
  /// (time, seq) order puts them. The batch's last handler may run further
  /// events inline (dispatch_inline), moving the clock on within the call.
  /// Returns the number of events executed, inline ones included (0 when
  /// the queue is empty).
  std::size_t drain_batch();

  /// Lets the running handler dispatch the event it would schedule at `t`
  /// (> now()) itself, when run() would dispatch that event next anyway:
  /// the handler is the last of its batch and no pending event is due at
  /// or before `t`. Then the clock moves to `t`, the event counts as
  /// scheduled and dispatched (event count, advanced time, queue
  /// high-water mark), and the caller runs its work. Otherwise nothing
  /// changes and the caller schedules the event as usual.
  bool dispatch_inline(SimTime t);

  std::size_t events_processed() const { return events_processed_; }
  bool idle() const { return heap_.empty(); }

  /// What a run of events moves: the clock, the sequence number of the
  /// next event, and the events processed.
  struct Mark {
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    std::size_t events = 0;
  };
  Mark mark() const { return {now_, next_seq_, events_processed_}; }

  /// On an idle simulator, stands in for `k` more runs like the one since
  /// `since`: the clock, the sequence number, the event count and their
  /// counters move on by k times what that run moved them. Throws
  /// OverflowError when one would pass its range.
  void fast_forward(const Mark& since, std::int64_t k);

  /// High-water mark of the pending-event count, updated at push.
  std::size_t peak_queue_size() const { return peak_queue_size_; }

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
  /// Checks `t` and returns the free slot its event will take, growing
  /// the slots when none is free. The slot stays on the free list until
  /// push() takes it.
  std::uint32_t free_slot(SimTime t);
  /// Queues the event just built in `slot` (free_slot's) at `t`.
  void push(std::uint32_t slot, SimTime t);
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
  /// True while the last handler of a batch runs.
  bool last_of_batch_ = false;
  std::size_t events_processed_ = 0;
  std::size_t peak_queue_size_ = 0;
  telemetry::Counter* events_counter_ = nullptr;
  telemetry::Counter* advanced_counter_ = nullptr;
};

}  // namespace ghs::sim
