#include "ghs/core/config_io.hpp"

#include "ghs/core/reduce.hpp"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs::core {
namespace {

TEST(ConfigIoTest, EmptyPropertiesLeaveDefaults) {
  SystemConfig config = gh200_config();
  apply_properties(Properties::parse(""), config);
  EXPECT_DOUBLE_EQ(config.topology.hbm_bw.gbps(), 4022.7);
  EXPECT_EQ(config.gpu.num_sms, 132);
}

TEST(ConfigIoTest, AppliesTopologyAndGpuKeys) {
  SystemConfig config = gh200_config();
  apply_properties(Properties::parse(
                       "topology.hbm_gbps = 6500\n"
                       "topology.c2c_gbps_per_direction = 225\n"
                       "gpu.num_sms = 160\n"
                       "gpu.mem_latency_ns = 500\n"
                       "gpu.um_hbm_efficiency = 0.9\n"),
                   config);
  EXPECT_DOUBLE_EQ(config.topology.hbm_bw.gbps(), 6500.0);
  EXPECT_DOUBLE_EQ(config.topology.c2c_per_direction_bw.gbps(), 225.0);
  EXPECT_EQ(config.gpu.num_sms, 160);
  EXPECT_EQ(config.gpu.mem_latency, from_nanoseconds(500.0));
  EXPECT_DOUBLE_EQ(config.gpu.um_hbm_efficiency, 0.9);
}

TEST(ConfigIoTest, AppliesCpuUmAndOmpKeys) {
  SystemConfig config = gh200_config();
  apply_properties(Properties::parse(
                       "cpu.cores = 144\n"
                       "cpu.aggregate_local_gbps = 960\n"
                       "um.mode = access-counter\n"
                       "um.gpu_access_threshold = 8\n"
                       "um.page_size_mib = 4\n"
                       "omp.default_threads = 256\n"
                       "omp.grid_clamp = 1048576\n"),
                   config);
  EXPECT_EQ(config.cpu.cores, 144);
  EXPECT_DOUBLE_EQ(config.cpu.aggregate_local_bw.gbps(), 960.0);
  EXPECT_EQ(config.um.mode, um::MigrationMode::kAccessCounter);
  EXPECT_EQ(config.um.gpu_access_threshold, 8);
  EXPECT_EQ(config.um.page_size, 4 * kMiB);
  EXPECT_EQ(config.omp.heuristic.default_threads, 256);
  EXPECT_EQ(config.omp.heuristic.grid_clamp, 1048576);
}

TEST(ConfigIoTest, UnknownKeysRejected) {
  SystemConfig config = gh200_config();
  EXPECT_THROW(apply_properties(Properties::parse("gpu.smcount = 10\n"),
                                config),
               Error);
}

TEST(ConfigIoTest, InvalidValuesRejected) {
  for (const char* text :
       {"topology.hbm_gbps = -5", "gpu.um_hbm_efficiency = 1.5",
        "um.mode = magic", "cpu.cores = zero", "topology.lpddr_gbps = 0",
        "gpu.num_sms = 0", "gpu.clock_ghz = 0", "gpu.mem_latency_ns = -1",
        "gpu.um_hbm_efficiency = 0", "um.cpu_access_threshold = -1",
        "um.page_size_mib = 0", "omp.grid_clamp = 0"}) {
    SystemConfig config = gh200_config();
    EXPECT_THROW(apply_properties(Properties::parse(text), config), Error)
        << text;
  }
}

TEST(ConfigIoTest, LoadSystemConfigAppliesEveryKeyFromAFile) {
  // Every key apply_properties accepts, each set away from its GH200
  // default, read back through the file loader the benches' --config uses.
  const std::string path =
      ::testing::TempDir() + "config_io_every_key.properties";
  {
    std::ofstream out(path);
    out << "# every key\n"
           "topology.hbm_gbps = 6500\n"
           "topology.lpddr_gbps = 1000\n"
           "topology.c2c_gbps_per_direction = 900\n"
           "topology.migration_engine_gbps = 300\n"
           "gpu.num_sms = 160\n"
           "gpu.clock_ghz = 2.1\n"
           "gpu.mem_latency_ns = 400\n"
           "gpu.max_outstanding_loads_per_warp = 12\n"
           "gpu.um_hbm_efficiency = 0.8\n"
           "gpu.remote_read_gbps = 700\n"
           "cpu.cores = 144\n"
           "cpu.aggregate_local_gbps = 960\n"
           "cpu.remote_read_gbps = 600\n"
           "cpu.socket_stream_gbps = 1040\n"
           "cpu.per_core_stream_gbps = 20\n"
           "um.mode = none\n"
           "um.fault_migration_gbps = 60\n"
           "um.gpu_access_threshold = 8\n"
           "um.cpu_access_threshold = 3\n"
           "um.page_size_mib = 4\n"
           "omp.default_threads = 256\n"
           "omp.grid_clamp = 65535\n";
  }
  const SystemConfig config = load_system_config(path);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(config.topology.hbm_bw.gbps(), 6500.0);
  EXPECT_DOUBLE_EQ(config.topology.lpddr_bw.gbps(), 1000.0);
  EXPECT_DOUBLE_EQ(config.topology.c2c_per_direction_bw.gbps(), 900.0);
  EXPECT_DOUBLE_EQ(config.topology.migration_engine_bw.gbps(), 300.0);
  EXPECT_EQ(config.gpu.num_sms, 160);
  EXPECT_DOUBLE_EQ(config.gpu.clock_ghz, 2.1);
  EXPECT_EQ(config.gpu.mem_latency, from_nanoseconds(400.0));
  EXPECT_EQ(config.gpu.max_outstanding_loads_per_warp, 12);
  EXPECT_DOUBLE_EQ(config.gpu.um_hbm_efficiency, 0.8);
  EXPECT_DOUBLE_EQ(config.gpu.remote_read_bw.gbps(), 700.0);
  EXPECT_EQ(config.cpu.cores, 144);
  EXPECT_DOUBLE_EQ(config.cpu.aggregate_local_bw.gbps(), 960.0);
  EXPECT_DOUBLE_EQ(config.cpu.remote_read_bw.gbps(), 600.0);
  EXPECT_DOUBLE_EQ(config.cpu.socket_stream_bw.gbps(), 1040.0);
  EXPECT_DOUBLE_EQ(config.cpu.per_core_stream_bw.gbps(), 20.0);
  EXPECT_EQ(config.um.mode, um::MigrationMode::kNone);
  EXPECT_DOUBLE_EQ(config.um.fault_migration_bw.gbps(), 60.0);
  EXPECT_EQ(config.um.gpu_access_threshold, 8);
  EXPECT_EQ(config.um.cpu_access_threshold, 3);
  EXPECT_EQ(config.um.page_size, 4 * kMiB);
  EXPECT_EQ(config.omp.heuristic.default_threads, 256);
  EXPECT_EQ(config.omp.heuristic.grid_clamp, 65535);
}

TEST(ConfigIoTest, LoadSystemConfigRejectsAMissingFile) {
  EXPECT_THROW(
      load_system_config(::testing::TempDir() + "no_such.properties"),
      Error);
}

TEST(ConfigIoTest, ModifiedConfigChangesSimulationOutcome) {
  // Halving HBM bandwidth should halve the optimized bandwidth.
  SystemConfig config = gh200_config();
  apply_properties(Properties::parse("topology.hbm_gbps = 2011.35\n"),
                   config);
  Platform fast;  // default
  Platform slow(config);
  GpuBenchmark bench;
  bench.case_id = workload::CaseId::kC1;
  bench.tuning = ReduceTuning{16384, 256, 4};
  // Large enough that launch/update overheads do not dilute the ratio.
  bench.elements = 1 << 28;
  bench.iterations = 2;
  const auto fast_result = run_gpu_benchmark(fast, bench);
  const auto slow_result = run_gpu_benchmark(slow, bench);
  EXPECT_NEAR(fast_result.bandwidth.gbps() / slow_result.bandwidth.gbps(),
              2.0, 0.1);
}

}  // namespace
}  // namespace ghs::core
