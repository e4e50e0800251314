#include "ghs/membership/health.hpp"

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

namespace ghs::membership {

namespace {

// log10(e): converts missed-intervals-in-means to the conventional
// phi-accrual suspicion scale.
constexpr double kLog10E = 0.4342944819032518;

std::string phi_reason(double phi) { return "phi=" + format_fixed(phi, 2); }

}  // namespace

HealthMonitor::HealthMonitor(sim::Simulator& sim, Table& table,
                             HealthOptions options,
                             std::function<bool(int)> up)
    : sim_(sim), table_(table), options_(options), up_(std::move(up)) {
  GHS_REQUIRE(options_.interval > 0, "health interval must be positive");
  GHS_REQUIRE(up_ != nullptr, "health monitor needs a probe");
  health_.resize(static_cast<std::size_t>(table_.nodes()));
}

void HealthMonitor::start() {
  // Every node starts alive with an implicit heartbeat at t=0, so a node
  // crashed before the first sweep still accrues phi from the start.
  const SimTime now = sim_.now();
  for (auto& h : health_) h.last_heartbeat = now;
  sim_.schedule_after(options_.interval, [this] { on_sweep(); });
}

void HealthMonitor::heartbeat(int node, NodeHealth& h, SimTime now) {
  if (h.last_heartbeat >= 0 && now > h.last_heartbeat) {
    const SimTime gap = now - h.last_heartbeat;
    if (static_cast<int>(h.intervals.size()) < kHeartbeatWindow) {
      h.intervals.push_back(gap);
    } else {
      h.intervals[h.next] = gap;
      h.next = (h.next + 1) % h.intervals.size();
    }
    double sum = 0.0;
    for (const SimTime sample : h.intervals) {
      sum += static_cast<double>(sample);
    }
    h.mean = sum / static_cast<double>(h.intervals.size());
  }
  h.last_heartbeat = now;
  h.phi = 0.0;
  const NodeState state = table_.state(node);
  if (state == NodeState::kSuspect) {
    h.recovering_since = -1;
    table_.transition(node, NodeState::kAlive, now, "heartbeat resumed");
  } else if (state == NodeState::kDead) {
    if (h.recovering_since < 0) h.recovering_since = now;
    if (now - h.recovering_since >= kRejoinDelay) {
      h.recovering_since = -1;
      table_.transition(node, NodeState::kAlive, now,
                        "rejoined after warm-up");
    }
  }
}

void HealthMonitor::score(int node, NodeHealth& h, SimTime now) {
  h.recovering_since = -1;
  if (h.last_heartbeat < 0) return;  // never seen; nothing to score
  const double mean =
      h.mean > 0.0 ? h.mean : static_cast<double>(options_.interval);
  h.phi = static_cast<double>(now - h.last_heartbeat) / mean * kLog10E;
  const NodeState state = table_.state(node);
  if ((state == NodeState::kAlive || state == NodeState::kSuspect) &&
      h.phi >= kDeadPhi) {
    table_.transition(node, NodeState::kDead, now, phi_reason(h.phi));
  } else if (state == NodeState::kAlive && h.phi >= kSuspectPhi) {
    table_.transition(node, NodeState::kSuspect, now, phi_reason(h.phi));
  }
}

bool HealthMonitor::pending() const {
  for (int i = 0; i < table_.nodes(); ++i) {
    const NodeState state = table_.state(i);
    if (state == NodeState::kDraining || state == NodeState::kLeft) continue;
    const bool answered = up_(i);
    if (answered && state == NodeState::kDead) return true;   // rejoining
    if (!answered && state != NodeState::kDead) return true;  // detecting
  }
  return false;
}

void HealthMonitor::on_sweep() {
  ++sweeps_;
  const SimTime now = sim_.now();
  for (int i = 0; i < table_.nodes(); ++i) {
    const NodeState state = table_.state(i);
    // Draining/left nodes are leaving on purpose; scoring them would
    // re-declare an orderly departure as a death.
    if (state == NodeState::kDraining || state == NodeState::kLeft) continue;
    NodeHealth& h = health_[static_cast<std::size_t>(i)];
    if (up_(i)) {
      heartbeat(i, h, now);
    } else {
      score(i, h, now);
    }
  }
  // Chain like the timeseries scraper: reschedule while the run is still
  // producing events, or while a detection/rejoin is mid-flight (phi grows
  // monotonically and warm-up windows elapse, so this always terminates).
  if (!sim_.idle() || pending()) {
    sim_.schedule_after(options_.interval, [this] { on_sweep(); });
  }
}

}  // namespace ghs::membership
