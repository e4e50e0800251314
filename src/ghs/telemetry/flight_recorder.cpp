#include "ghs/telemetry/flight_recorder.hpp"

#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::telemetry {

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  GHS_REQUIRE(capacity_ > 0, "flight recorder needs capacity >= 1");
  ring_.reserve(capacity_);
}

FlightRecorder::Slot& FlightRecorder::next_slot() {
  ++total_;
  if (ring_.size() < capacity_) return ring_.emplace_back();
  Slot& slot = ring_[next_];
  if (++next_ == capacity_) next_ = 0;
  return slot;
}

std::int64_t FlightRecorder::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = name_ids_.try_emplace(
      name, static_cast<std::int64_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::int64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::int64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_ - static_cast<std::int64_t>(ring_.size());
}

Event FlightRecorder::read(const Slot& slot) const {
  Event event{slot.at, slot.type->layer, slot.type->kind, {}};
  if (slot.type->format != nullptr) {
    slot.type->format(event.detail, EventArgs(slot.args, names_));
  }
  return event;
}

std::vector<Event> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(read(ring_[(next_ + i) % ring_.size()]));
  }
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  const auto snapshot = events();
  std::int64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lost = total_ - static_cast<std::int64_t>(ring_.size());
  }
  Writer w(os);
  w << "flight recorder: " << snapshot.size() << " events";
  if (lost > 0) w << " (" << lost << " older events dropped)";
  w << "\n";
  for (const auto& event : snapshot) {
    w << "  [" << format_time(event.at) << "] " << event.layer << " "
      << event.kind;
    if (!event.detail.empty()) w << " " << event.detail;
    w << "\n";
  }
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

}  // namespace ghs::telemetry
