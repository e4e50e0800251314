// Memory topology of the simulated Grace-Hopper module: two physical
// memories (HBM3 behind the Hopper GPU, LPDDR5X behind the Grace CPU)
// joined by the NVLink-C2C interconnect (one capacity resource per
// direction), plus a migration-engine resource that caps how fast the UM
// driver can move pages regardless of link headroom.
//
// Every data movement in the repository is expressed as a fluid flow over a
// *path* (a set of these resources); the paths for the common cases are
// provided here so device models cannot accidentally disagree about what a
// remote access traverses. Bulk transfers (explicit host<->device copies,
// and the raw mover underneath UM page migration) start here too, each as
// one flow along its path.
#pragma once

#include <functional>
#include <vector>

#include "ghs/sim/fluid.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/util/units.hpp"

namespace ghs::mem {

/// Physical memory a page or buffer lives in.
enum class RegionId { kHbm, kLpddr };

const char* region_name(RegionId region);

struct TopologyConfig {
  /// Peak HBM3 bandwidth; paper's testbed reports 4022.7 GB/s.
  Bandwidth hbm_bw = Bandwidth::from_gbps(4022.7);
  /// Peak LPDDR5X bandwidth of the 480 GB Grace socket (~512 GB/s class;
  /// ~500 achievable).
  Bandwidth lpddr_bw = Bandwidth::from_gbps(500.0);
  /// NVLink-C2C capacity per direction (450 GB/s each way).
  Bandwidth c2c_per_direction_bw = Bandwidth::from_gbps(450.0);
  /// Cap on the UM driver's page-migration machinery (fault handling,
  /// unmap/remap); migrations move slower than raw link copies.
  Bandwidth migration_engine_bw = Bandwidth::from_gbps(250.0);
};

class Topology {
 public:
  Topology(sim::Simulator& sim, const TopologyConfig& config);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  sim::FluidNetwork& network() { return network_; }
  const sim::FluidNetwork& network() const { return network_; }
  sim::Simulator& sim() { return sim_; }
  const TopologyConfig& config() const { return config_; }

  sim::ResourceId hbm() const { return hbm_; }
  sim::ResourceId lpddr() const { return lpddr_; }
  /// C2C lane carrying data toward the GPU (GPU reads of CPU memory,
  /// host-to-device copies, CPU-to-GPU page migration).
  sim::ResourceId c2c_to_gpu() const { return c2c_to_gpu_; }
  /// C2C lane carrying data toward the CPU.
  sim::ResourceId c2c_to_cpu() const { return c2c_to_cpu_; }
  sim::ResourceId migration_engine() const { return migration_engine_; }

  /// Resources a GPU streaming read of memory in `where` traverses.
  std::vector<sim::ResourceId> gpu_read_path(RegionId where) const;

  /// Resources a CPU streaming read of memory in `where` traverses.
  std::vector<sim::ResourceId> cpu_read_path(RegionId where) const;

  /// Resources a UM page migration traverses (source memory, link lane,
  /// destination memory, and the migration engine).
  std::vector<sim::ResourceId> migration_path(RegionId from, RegionId to) const;

  /// Resources an explicit map(to:)/map(from:) bulk copy traverses.
  std::vector<sim::ResourceId> copy_path(RegionId from, RegionId to) const;

  /// Starts an explicit bulk copy along copy_path; `on_complete` fires when
  /// the last byte lands. Zero-byte copies complete immediately (inline).
  void copy(Bytes bytes, RegionId from, RegionId to,
            std::function<void()> on_complete);

  /// Starts a UM page-migration transfer along migration_path, which goes
  /// through the migration engine as well as the memories and link.
  void migrate(Bytes bytes, RegionId from, RegionId to,
               std::function<void()> on_complete);

 private:
  void start(Bytes bytes, std::vector<sim::ResourceId> path,
             std::function<void()> on_complete);

  TopologyConfig config_;
  sim::Simulator& sim_;
  sim::FluidNetwork network_;
  sim::ResourceId hbm_;
  sim::ResourceId lpddr_;
  sim::ResourceId c2c_to_gpu_;
  sim::ResourceId c2c_to_cpu_;
  sim::ResourceId migration_engine_;
};

}  // namespace ghs::mem
