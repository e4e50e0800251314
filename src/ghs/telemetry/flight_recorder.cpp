#include "ghs/telemetry/flight_recorder.hpp"

#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::telemetry {

FlightRecorder::FlightRecorder(std::size_t capacity) : ring_(capacity) {
  GHS_REQUIRE(capacity > 0, "flight recorder needs capacity >= 1");
  ring_.reserve();
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
  return ring_.total();
}

std::int64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.dropped();
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
  ring_.for_each([&](const Slot& slot) { out.push_back(read(slot)); });
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  const auto snapshot = events();
  const std::int64_t lost = dropped();
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
}

}  // namespace ghs::telemetry
