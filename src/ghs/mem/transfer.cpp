#include "ghs/mem/transfer.hpp"

#include <utility>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::mem {

void TransferEngine::fast_forward(const CopyStats& since, std::int64_t k) {
  stats_.copies += repeated(stats_.copies, k, stats_.copies - since.copies,
                            "transfer-engine copies");
  stats_.bytes += repeated(stats_.bytes, k, stats_.bytes - since.bytes,
                           "transfer-engine bytes");
}

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
  ++stats_.copies;
  stats_.bytes += bytes;
  sim::FlowSpec spec;
  spec.bytes = static_cast<double>(bytes);
  spec.resources = std::move(path);
  spec.on_complete = std::move(on_complete);
  topology_.network().start_flow(std::move(spec));
}

}  // namespace ghs::mem
