#include "ghs/mem/transfer.hpp"

#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::mem {

void TransferEngine::copy(Bytes bytes, RegionId from, RegionId to,
                          std::function<void()> on_complete) {
  start(bytes, topology_.copy_path(from, to), std::move(on_complete));
}

void TransferEngine::migrate(Bytes bytes, RegionId from, RegionId to,
                             std::function<void()> on_complete) {
  start(bytes, topology_.migration_path(from, to), std::move(on_complete));
}

void TransferEngine::start(Bytes bytes, std::vector<sim::ResourceId> path,
                           std::function<void()> on_complete) {
  GHS_REQUIRE(bytes >= 0, "bytes=" << bytes);
  if (bytes == 0) {
    if (on_complete) on_complete();
    return;
  }
  sim::FlowSpec spec;
  spec.bytes = static_cast<double>(bytes);
  spec.resources = std::move(path);
  spec.on_complete = std::move(on_complete);
  topology_.network().start_flow(std::move(spec));
}

}  // namespace ghs::mem
