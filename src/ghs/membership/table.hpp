// Fleet membership table: the single source of truth for per-node
// liveness state inside a cluster run.
//
// States follow the usual failure-detector lifecycle. kAlive nodes take
// traffic; kSuspect nodes still take traffic (the detector is not yet
// sure) but are first in line to be declared dead; kDead nodes are off
// the ring, and the cluster has replayed every job whose journal entry
// (kept in its in-flight job table) named them; kDraining nodes are
// being emptied by an operator and admit nothing new; kLeft nodes have
// departed cleanly. Transitions are appended to a log with the sim
// timestamp and a human-readable reason, and a single callback lets the
// cluster react (ring membership, replay, telemetry) in one place no
// matter who drove the transition — the HealthMonitor or a forced
// transition when the detector is off.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ghs/util/units.hpp"

namespace ghs::membership {

enum class NodeState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
  kDraining = 3,
  kLeft = 4,
};

const char* node_state_name(NodeState state);

/// One recorded state change; `reason` is free text for post-mortems
/// ("phi=3.12", "drain", "crash (no detector)").
struct Transition {
  int node = 0;
  NodeState from = NodeState::kAlive;
  NodeState to = NodeState::kAlive;
  SimTime at = 0;
  std::string reason;
};

class Table {
 public:
  using TransitionFn = std::function<void(const Transition&)>;

  explicit Table(int nodes);

  int nodes() const { return static_cast<int>(states_.size()); }
  NodeState state(int node) const {
    return states_[static_cast<std::size_t>(checked(node))];
  }

  /// Alive or suspect: the front door may still route new work here.
  bool serving(int node) const {
    const NodeState s = state(node);
    return s == NodeState::kAlive || s == NodeState::kSuspect;
  }

  /// Invoked after every state change, with the transition already
  /// appended to the log.
  void set_on_transition(TransitionFn fn) { on_transition_ = std::move(fn); }

  /// Moves `node` to `to`; a no-op when the state is unchanged, so
  /// callers need not pre-check.
  void transition(int node, NodeState to, SimTime at, std::string reason);

  const std::vector<Transition>& log() const { return log_; }

 private:
  int checked(int node) const;

  std::vector<NodeState> states_;
  std::vector<Transition> log_;
  TransitionFn on_transition_;
};

}  // namespace ghs::membership
