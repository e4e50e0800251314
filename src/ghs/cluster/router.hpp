// Routing policies of the cluster front door. The router decides, at each
// job's arrival instant, which node serves it:
//
//   hash        — consistent-hash by tenant: a tenant's jobs stick to one
//                 node (data locality, per-tenant cache affinity), and
//                 resizing the fleet remaps only ~1/N of tenants.
//   least       — global least-loaded: argmin over node load (queue depth
//                 + busy devices + in-flight deliveries). The omniscient
//                 baseline real front doors approximate.
//   p2c         — power-of-two-choices: sample two distinct nodes from a
//                 seeded stream, take the less loaded. Near-least balance
//                 with O(1) load probes; the classic Mitzenmacher result.
//
// Routing consumes randomness only for p2c, from the router's own seeded
// stream, so routing never perturbs workload generation and every policy
// is byte-reproducible at a fixed seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ghs/cluster/ring.hpp"
#include "ghs/serve/job.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::cluster {

enum class RouterPolicy : std::uint8_t { kHash, kLeast, kP2c };

const char* router_policy_name(RouterPolicy policy);

/// Parses "hash" | "least" | "p2c"; throws on anything else.
RouterPolicy parse_router_policy(const std::string& name);

class Router {
 public:
  Router(RouterPolicy policy, std::uint64_t seed);

  RouterPolicy policy() const { return policy_; }
  const HashRing& ring() const { return ring_; }

  void add_node(int node) { ring_.add_node(node); }
  void remove_node(int node) { ring_.remove_node(node); }

  /// Serving node for `job` given per-node loads (index = node id). The
  /// hash policy ignores loads; least/p2c ignore the job. Requires a
  /// non-empty load vector (and, for hash, a non-empty ring).
  int pick(const serve::Job& job, const std::vector<std::size_t>& loads);

 private:
  RouterPolicy policy_;
  HashRing ring_;
  Rng rng_;
};

}  // namespace ghs::cluster
