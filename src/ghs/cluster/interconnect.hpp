// Inter-node transfer fabric of the simulated GH200 fleet. Each node's
// LPDDR5X is one capacity resource and every ordered node pair gets its
// own link resource (an NVLink-style point-to-point lane), all inside one
// sim::FluidNetwork, so a remote job's bytes contend max-min fairly with
// every other transfer touching the same source memory, link, or
// destination memory — the same mechanism ghs::mem uses for HBM/C2C
// contention inside a single superchip.
//
// The fabric carries only cluster-level traffic (remote job inputs, spill
// forwards, stolen queue contents); intra-node memory behaviour stays in
// the node's own service model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ghs/sim/fluid.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::cluster {

struct InterconnectOptions {
  /// Per-node memory capacity the fabric can draw on (LPDDR5X share
  /// reserved for network traffic).
  Bandwidth memory_bw = Bandwidth::from_gbps(500.0);
  /// Per-ordered-pair link capacity (one NVLink direction).
  Bandwidth link_bw = Bandwidth::from_gbps(450.0);
};

class Interconnect {
 public:
  Interconnect(sim::Simulator& sim, int nodes,
               InterconnectOptions options = {});

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  int nodes() const { return nodes_; }

  /// Moves `bytes` from node `src` to node `dst` through src memory, the
  /// src->dst link, and dst memory; fires `on_complete` when the last
  /// byte lands. Zero-byte transfers complete via a same-instant event so
  /// callback ordering stays deterministic. Requires src != dst.
  void transfer(int src, int dst, Bytes bytes,
                std::function<void()> on_complete, std::string label = {});

  std::int64_t transfers() const { return transfers_; }
  double bytes_moved() const { return bytes_moved_; }

  sim::FluidNetwork& network() { return net_; }

 private:
  sim::ResourceId link(int src, int dst) const;

  sim::Simulator& sim_;
  sim::FluidNetwork net_;
  int nodes_;
  std::vector<sim::ResourceId> mem_;
  /// Row-major [src * nodes + dst]; the diagonal holds a sentinel (a node
  /// never transfers to itself).
  std::vector<sim::ResourceId> links_;
  std::int64_t transfers_ = 0;
  double bytes_moved_ = 0.0;
};

}  // namespace ghs::cluster
