#include "ghs/fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "ghs/util/strings.hpp"

namespace ghs::fault {

namespace {

/// "service xS" for a stretch of S.
void append_stretch(std::string& out, double stretch) {
  out += "service x" + format_fixed(stretch, 3);
}

using Args = telemetry::EventArgs;

const char* target_of(std::int64_t target) {
  return target_name(static_cast<Target>(target));
}

/// (target, stretch)
constexpr telemetry::EventType kSlowdownEvent{
    "fault", "slowdown", [](std::string& out, const Args& a) {
      telemetry::append(out, target_of(a.i(0)), " ");
      append_stretch(out, a.d(1));
    }};
/// (stretch)
constexpr telemetry::EventType kStallEvent{
    "fault", "migration_stall",
    [](std::string& out, const Args& a) { append_stretch(out, a.d(0)); }};
/// (target)
constexpr telemetry::EventType kKernelFaultEvent{
    "fault", "kernel_fault",
    [](std::string& out, const Args& a) { out += target_of(a.i(0)); }};
/// (target)
constexpr telemetry::EventType kOutageFaultEvent{
    "fault", "outage_fault",
    [](std::string& out, const Args& a) { out += target_of(a.i(0)); }};

}  // namespace

Injector::Injector(FaultPlan plan, std::uint64_t seed, telemetry::Sink sink)
    : plan_(std::move(plan)), rng_(seed) {
  flight_ = sink.flight;
  if (sink.metrics != nullptr) {
    telemetry::Registry& r = *sink.metrics;
    for (const Target target : {Target::kGpu, Target::kCpu}) {
      const telemetry::Labels labels = {{"device", target_name(target)}};
      const auto index = static_cast<std::size_t>(target);
      m_kernel_faults_[index] =
          &r.counter("ghs_fault_kernel_failures_total", labels,
                     "Transient kernel failures injected per device");
      m_outage_faults_[index] =
          &r.counter("ghs_fault_outage_failures_total", labels,
                     "Launches failed by a device-down window");
      m_slowed_[index] =
          &r.counter("ghs_fault_slowed_launches_total", labels,
                     "Launches served under a bandwidth brown-out");
    }
    m_stalled_ = &r.counter("ghs_fault_stalled_launches_total", {},
                            "Unified launches under a migration stall");
  }
}

bool Injector::judge_launch(Target target, SimTime begin, bool unified,
                            SimTime& service) {
  for (const auto& outage : plan_.outages) {
    if (outage.target == target && outage.window.contains(begin)) {
      service = plan_.down_error_latency;
      note_outage_fault(target, begin);
      return true;
    }
  }
  // A window-less episode is active for the whole run.
  const auto active = [begin](const Window& window) {
    return window.unbounded() || window.contains(begin);
  };
  double scale = 1.0;
  for (const auto& episode : plan_.bandwidth_episodes) {
    if (episode.target == target && active(episode.window)) {
      scale *= 1.0 / episode.scale;
    }
  }
  double stall = 1.0;
  if (unified) {
    for (const auto& episode : plan_.migration_stalls) {
      if (active(episode.window)) stall *= 1.0 / episode.scale;
    }
  }
  if (scale > 1.0) {
    const auto index = static_cast<std::size_t>(target);
    if (m_slowed_[index] != nullptr) m_slowed_[index]->inc();
    telemetry::record_event(flight_, begin, kSlowdownEvent, target, scale);
  }
  if (stall > 1.0) {
    if (m_stalled_ != nullptr) m_stalled_->inc();
    telemetry::record_event(flight_, begin, kStallEvent, stall);
  }
  if (scale * stall > 1.0) {
    const double stretched = static_cast<double>(service) * scale * stall;
    // The stretched launch must end inside SimTime's 2^63 ps.
    if (!(stretched < 0x1p63 - static_cast<double>(begin))) {
      throw_stretch_error(target, begin, unified, service);
    }
    service = static_cast<SimTime>(std::llround(stretched));
  }
  bool failed = false;
  for (const auto& outage : plan_.outages) {
    if (outage.target == target &&
        outage.window.overlaps(begin, begin + service)) {
      failed = true;
      note_outage_fault(target, begin);
      break;
    }
  }
  if (kernel_fails(target, begin)) failed = true;
  return failed;
}

void Injector::throw_stretch_error(Target target, SimTime begin,
                                   bool unified, SimTime service) const {
  // Names the most severe entry active for this launch.
  char entry[96] = "";
  double worst = 2.0;
  for (const auto& episode : plan_.bandwidth_episodes) {
    if (episode.target == target && episode.scale < worst &&
        (episode.window.unbounded() || episode.window.contains(begin))) {
      worst = episode.scale;
      std::snprintf(entry, sizeof(entry), "bandwidth %s scale=%g",
                    target_name(target), episode.scale);
    }
  }
  for (const auto& episode : plan_.migration_stalls) {
    if (unified && episode.scale < worst &&
        (episode.window.unbounded() || episode.window.contains(begin))) {
      worst = episode.scale;
      std::snprintf(entry, sizeof(entry), "migration-stall scale=%g",
                    episode.scale);
    }
  }
  throw PlanError("fault plan entry '" + std::string(entry) +
                  "' stretches a " + format_time(service) + " launch at " +
                  format_time(begin) + " past the simulated clock's range");
}

bool Injector::kernel_fails(Target target, SimTime now) {
  bool failed = false;
  for (const auto& spec : plan_.kernel_faults) {
    if (spec.target != target) continue;
    if (!spec.window.unbounded() && !spec.window.contains(now)) continue;
    if (spec.probability <= 0.0) continue;
    if (spec.probability >= 1.0) {
      failed = true;
      continue;
    }
    // Every active fractional spec draws exactly once, even after another
    // spec already failed the launch, so the RNG stream depends only on
    // the (deterministic) sequence of launch times.
    if (rng_.next_double() < spec.probability) failed = true;
  }
  if (failed) {
    const auto index = static_cast<std::size_t>(target);
    if (m_kernel_faults_[index] != nullptr) m_kernel_faults_[index]->inc();
    telemetry::record_event(flight_, now, kKernelFaultEvent, target);
  }
  return failed;
}

void Injector::note_outage_fault(Target target, SimTime now) {
  const auto index = static_cast<std::size_t>(target);
  if (m_outage_faults_[index] != nullptr) m_outage_faults_[index]->inc();
  telemetry::record_event(flight_, now, kOutageFaultEvent, target);
}

std::vector<SimTime> Injector::transitions() const {
  std::vector<SimTime> times;
  const auto add = [&times](const Window& window) {
    if (window.unbounded()) return;
    times.push_back(window.begin);
    times.push_back(window.end);
  };
  for (const auto& spec : plan_.kernel_faults) add(spec.window);
  for (const auto& episode : plan_.bandwidth_episodes) add(episode.window);
  for (const auto& outage : plan_.outages) add(outage.window);
  for (const auto& episode : plan_.migration_stalls) add(episode.window);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace ghs::fault
