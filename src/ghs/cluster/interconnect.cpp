#include "ghs/cluster/interconnect.hpp"

#include <limits>
#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::cluster {

namespace {
constexpr sim::ResourceId kNoLink =
    std::numeric_limits<sim::ResourceId>::max();
}  // namespace

Interconnect::Interconnect(sim::Simulator& sim, int nodes,
                           InterconnectOptions options)
    : sim_(sim), net_(sim), nodes_(nodes) {
  GHS_REQUIRE(nodes > 0, "nodes=" << nodes);
  GHS_REQUIRE(options.link_bw.bytes_per_second > 0.0,
              "non-positive interconnect bandwidth");
  mem_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    mem_.push_back(
        net_.add_resource("node" + std::to_string(n) + ".mem", kMemoryBw));
  }
  const std::size_t width = static_cast<std::size_t>(nodes);
  links_.assign(width * width, kNoLink);
  for (int s = 0; s < nodes; ++s) {
    for (int d = 0; d < nodes; ++d) {
      if (s == d) continue;
      links_[static_cast<std::size_t>(s) * width +
             static_cast<std::size_t>(d)] =
          net_.add_resource(
              "link" + std::to_string(s) + "->" + std::to_string(d),
              options.link_bw);
    }
  }
}

sim::ResourceId Interconnect::link(int src, int dst) const {
  GHS_REQUIRE(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
              "link " << src << "->" << dst << " on " << nodes_ << " nodes");
  GHS_REQUIRE(src != dst, "self-link on node " << src);
  return links_[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(nodes_) +
                static_cast<std::size_t>(dst)];
}

void Interconnect::transfer(int src, int dst, Bytes bytes,
                            std::function<void()> on_complete,
                            std::string label) {
  const sim::ResourceId lane = link(src, dst);
  GHS_REQUIRE(bytes >= 0, "bytes=" << bytes);
  ++transfers_;
  bytes_moved_ += static_cast<double>(bytes);
  if (bytes == 0) {
    sim_.schedule_after(0, std::move(on_complete));
    return;
  }
  sim::FlowSpec spec;
  spec.bytes = static_cast<double>(bytes);
  spec.resources = {mem_[static_cast<std::size_t>(src)], lane,
                    mem_[static_cast<std::size_t>(dst)]};
  spec.on_complete = std::move(on_complete);
  spec.label = std::move(label);
  net_.start_flow(std::move(spec));
}

}  // namespace ghs::cluster
