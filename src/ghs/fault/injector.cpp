#include "ghs/fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace ghs::fault {

namespace {

std::string scale_detail(const char* what, double scale) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s x%.3f", what, scale);
  return buf;
}

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
    telemetry::record_event(flight_, begin, "fault", "slowdown",
                            std::string(target_name(target)) + " " +
                                scale_detail("service", scale));
  }
  if (stall > 1.0) {
    if (m_stalled_ != nullptr) m_stalled_->inc();
    telemetry::record_event(flight_, begin, "fault", "migration_stall",
                            scale_detail("service", stall));
  }
  if (scale * stall > 1.0) {
    service = static_cast<SimTime>(
        std::llround(static_cast<double>(service) * scale * stall));
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
    telemetry::record_event(flight_, now, "fault", "kernel_fault",
                            target_name(target));
  }
  return failed;
}

void Injector::note_outage_fault(Target target, SimTime now) {
  const auto index = static_cast<std::size_t>(target);
  if (m_outage_faults_[index] != nullptr) m_outage_faults_[index]->inc();
  telemetry::record_event(flight_, now, "fault", "outage_fault",
                          target_name(target));
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
