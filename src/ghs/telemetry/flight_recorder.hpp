// Flight recorder: a bounded ring buffer (util/bounded_ring.hpp) of
// structured events (admissions, rejections, device launches, page
// migrations, tuner cache hits/misses) that the layers append to as they
// run. It keeps only the last `capacity` events, so it can stay enabled
// for arbitrarily long runs and be dumped on error or on demand, black-box
// style.
//
// Recording formats nothing. A slot keeps the time, a pointer to the
// site's static EventType (layer, kind, formatter) and up to
// kMaxEventArgs POD arguments; the detail string is built only when
// events() or dump() reads the slot. Most records are overwritten unread,
// so a record costs a few stores. Text an argument cannot hold by value
// (a kernel or allocation label, a membership reason) is interned once:
// intern() returns an id the site passes as an argument, and the
// formatter reads the text back with EventArgs::name().
//
// Timestamps are the *recording layer's* simulated clock; sources that run
// on separate Platforms (tuner probes, service-model pricing) each start at
// t=0, so the layer tag, not the timestamp, orders events across sources.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ghs/util/bounded_ring.hpp"
#include "ghs/util/units.hpp"

namespace ghs::telemetry {

/// One event as read back: the detail is formatted from the recorded
/// arguments.
struct Event {
  SimTime at = 0;       // the recording layer's simulated clock
  std::string layer;    // "serve", "um", "gpu", "tuner", ...
  std::string kind;     // "admit", "reject", "launch", "migrate", ...
  std::string detail;   // e.g. "C2 x3 @GPU launch 7"
};

inline constexpr std::size_t kMaxEventArgs = 5;

/// One POD argument; the site's formatter knows which member each
/// position holds.
union EventArg {
  std::int64_t i;
  double d;
  /// Static storage only: a string literal or a name-table entry.
  const char* s;
};

/// What a formatter reads: one event's arguments and the recorder's
/// interned names.
class EventArgs {
 public:
  EventArgs(const EventArg* args, const std::vector<std::string>& names)
      : args_(args), names_(names) {}

  std::int64_t i(std::size_t k) const { return args_[k].i; }
  double d(std::size_t k) const { return args_[k].d; }
  const char* s(std::size_t k) const { return args_[k].s; }
  /// The text interned under the id argument k holds.
  const std::string& name(std::size_t k) const {
    return names_[static_cast<std::size_t>(args_[k].i)];
  }

 private:
  const EventArg* args_;
  const std::vector<std::string>& names_;
};

/// Appends each part to `out`: text as it is, integers in decimal. What
/// most formatters are made of.
template <class... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

/// A recording site: a static constant next to the code that records.
/// `format` appends the detail to `out`; null means no detail.
struct EventType {
  const char* layer;
  const char* kind;
  void (*format)(std::string& out, const EventArgs& args);
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event of `type` with its arguments (integers and enums,
  /// doubles, static strings, interned name ids), in the order the type's
  /// formatter reads them.
  template <class... Args>
  void record(SimTime at, const EventType& type, Args... args) {
    static_assert(sizeof...(Args) <= kMaxEventArgs, "too many arguments");
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = ring_.append();
    slot.at = at;
    slot.type = &type;
    std::size_t k = 0;
    ((slot.args[k++] = to_arg(args)), ...);
  }

  /// A stable id for `name`, the same id for the same text.
  std::int64_t intern(const std::string& name);

  std::size_t capacity() const { return ring_.capacity(); }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Events ever recorded, including overwritten ones.
  std::int64_t total_recorded() const;
  /// Events lost to the ring bound (total_recorded - size).
  std::int64_t dropped() const;

  /// Snapshot, oldest first.
  std::vector<Event> events() const;

  /// Human dump: one `[time] layer kind detail` line per event, oldest
  /// first, with a header noting drops.
  void dump(std::ostream& os) const;

  /// Empties the ring; interned ids stay valid.
  void clear();

 private:
  struct Slot {
    SimTime at = 0;
    const EventType* type = nullptr;
    EventArg args[kMaxEventArgs] = {};
  };

  template <class T>
  static EventArg to_arg(T value) {
    EventArg arg{};
    if constexpr (std::is_same_v<T, const char*>) {
      arg.s = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      arg.d = static_cast<double>(value);
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                    "flight arguments are integers, enums, doubles or "
                    "static strings");
      arg.i = static_cast<std::int64_t>(value);
    }
    return arg;
  }

  Event read(const Slot& slot) const;

  mutable std::mutex mutex_;
  BoundedRing<Slot> ring_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::int64_t> name_ids_;
};

/// Null-safe helper mirroring trace::record_span.
template <class... Args>
void record_event(FlightRecorder* recorder, SimTime at, const EventType& type,
                  Args... args) {
  if (recorder != nullptr) recorder->record(at, type, args...);
}

}  // namespace ghs::telemetry
