#include "ghs/mem/topology.hpp"

#include <utility>

#include "ghs/util/error.hpp"

namespace ghs::mem {

const char* region_name(RegionId region) {
  switch (region) {
    case RegionId::kHbm:
      return "HBM3";
    case RegionId::kLpddr:
      return "LPDDR5X";
  }
  return "?";
}

Topology::Topology(sim::Simulator& sim, const TopologyConfig& config)
    : config_(config),
      sim_(sim),
      network_(sim),
      hbm_(network_.add_resource("HBM3", config.hbm_bw)),
      lpddr_(network_.add_resource("LPDDR5X", config.lpddr_bw)),
      c2c_to_gpu_(
          network_.add_resource("C2C->GPU", config.c2c_per_direction_bw)),
      c2c_to_cpu_(
          network_.add_resource("C2C->CPU", config.c2c_per_direction_bw)),
      migration_engine_(network_.add_resource("UM-migration",
                                              config.migration_engine_bw)) {}

std::vector<sim::ResourceId> Topology::gpu_read_path(RegionId where) const {
  if (where == RegionId::kHbm) return {hbm_};
  return {lpddr_, c2c_to_gpu_};
}

std::vector<sim::ResourceId> Topology::cpu_read_path(RegionId where) const {
  if (where == RegionId::kLpddr) return {lpddr_};
  return {hbm_, c2c_to_cpu_};
}

std::vector<sim::ResourceId> Topology::migration_path(RegionId from,
                                                      RegionId to) const {
  GHS_REQUIRE(from != to, "migration within " << region_name(from));
  if (from == RegionId::kLpddr) {
    return {lpddr_, c2c_to_gpu_, hbm_, migration_engine_};
  }
  return {hbm_, c2c_to_cpu_, lpddr_, migration_engine_};
}

std::vector<sim::ResourceId> Topology::copy_path(RegionId from,
                                                 RegionId to) const {
  GHS_REQUIRE(from != to, "copy within " << region_name(from));
  if (from == RegionId::kLpddr) return {lpddr_, c2c_to_gpu_, hbm_};
  return {hbm_, c2c_to_cpu_, lpddr_};
}

void Topology::copy(Bytes bytes, RegionId from, RegionId to,
                    std::function<void()> on_complete) {
  start(bytes, copy_path(from, to), std::move(on_complete));
}

void Topology::migrate(Bytes bytes, RegionId from, RegionId to,
                       std::function<void()> on_complete) {
  start(bytes, migration_path(from, to), std::move(on_complete));
}

void Topology::start(Bytes bytes, std::vector<sim::ResourceId> path,
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
  network_.start_flow(std::move(spec));
}

}  // namespace ghs::mem
