#include "ghs/cluster/router.hpp"

#include "ghs/util/error.hpp"

namespace ghs::cluster {

const char* router_policy_name(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kHash:
      return "hash";
    case RouterPolicy::kLeast:
      return "least";
    case RouterPolicy::kP2c:
      return "p2c";
  }
  return "?";
}

RouterPolicy parse_router_policy(const std::string& name) {
  if (name == "hash") return RouterPolicy::kHash;
  if (name == "least") return RouterPolicy::kLeast;
  if (name == "p2c") return RouterPolicy::kP2c;
  GHS_REQUIRE(name == "hash" || name == "least" || name == "p2c",
              "unknown router policy '" << name << "' (hash|least|p2c)");
  GHS_UNREACHABLE("");
}

Router::Router(RouterPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {}

int Router::pick(const serve::Job& job,
                 const std::vector<std::size_t>& loads) {
  GHS_REQUIRE(!loads.empty(), "pick() with no nodes");
  const std::size_t n = loads.size();
  switch (policy_) {
    case RouterPolicy::kHash:
      return ring_.owner(static_cast<std::uint64_t>(job.tenant));
    case RouterPolicy::kLeast: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (loads[i] < loads[best]) best = i;
      }
      return static_cast<int>(best);
    }
    case RouterPolicy::kP2c: {
      if (n == 1) return 0;
      const std::size_t a = rng_.next_below(n);
      std::size_t b = rng_.next_below(n);
      while (b == a) b = rng_.next_below(n);
      // Ties go to the first sample, so the decision is a pure function
      // of the draw order.
      return static_cast<int>(loads[b] < loads[a] ? b : a);
    }
  }
  GHS_UNREACHABLE("router policy " << static_cast<int>(policy_));
}

}  // namespace ghs::cluster
