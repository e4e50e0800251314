// Bulk-copy engine: explicit host<->device copies (what the `map` clause
// does outside unified-memory mode) and the raw mover underneath UM page
// migration. A copy is a single fluid flow along the topology's copy or
// migration path, optionally rate-capped (DMA engines do not reach full
// link speed for small pages).
#pragma once

#include <functional>
#include <vector>

#include "ghs/mem/topology.hpp"
#include "ghs/util/units.hpp"

namespace ghs::mem {

class TransferEngine {
 public:
  explicit TransferEngine(Topology& topology) : topology_(topology) {}

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Starts an explicit bulk copy; `on_complete` fires when the last byte
  /// lands. Zero-byte copies complete immediately (inline).
  void copy(Bytes bytes, RegionId from, RegionId to,
            std::function<void()> on_complete);

  /// Starts a UM page-migration transfer (goes through the migration-engine
  /// resource as well as the memories and link).
  void migrate(Bytes bytes, RegionId from, RegionId to,
               std::function<void()> on_complete);

 private:
  void start(Bytes bytes, std::vector<sim::ResourceId> path,
             std::function<void()> on_complete);

  Topology& topology_;
};

}  // namespace ghs::mem
