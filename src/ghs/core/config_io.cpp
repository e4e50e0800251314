#include "ghs/core/config_io.hpp"

#include <functional>
#include <map>

#include "ghs/util/error.hpp"

namespace ghs::core {

namespace {

using Setter = std::function<void(const Properties&, const std::string&,
                                  SystemConfig&)>;

void set_gbps(Bandwidth& field, const Properties& props,
              const std::string& key) {
  const auto value = props.get_double(key);
  GHS_REQUIRE(*value > 0.0, "property '" << key << "' must be positive");
  field = Bandwidth::from_gbps(*value);
}

void set_positive_int(int& field, const Properties& props,
                      const std::string& key) {
  const auto value = props.get_int(key);
  GHS_REQUIRE(*value > 0, "property '" << key << "' must be positive");
  field = static_cast<int>(*value);
}

const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter> map = {
      // --- topology ---
      {"topology.hbm_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.topology.hbm_bw, p, k);
       }},
      {"topology.lpddr_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.topology.lpddr_bw, p, k);
       }},
      {"topology.c2c_gbps_per_direction",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.topology.c2c_per_direction_bw, p, k);
       }},
      {"topology.migration_engine_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.topology.migration_engine_bw, p, k);
       }},
      // --- gpu ---
      {"gpu.num_sms",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_positive_int(c.gpu.num_sms, p, k);
       }},
      {"gpu.clock_ghz",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_double(k);
         GHS_REQUIRE(*v > 0.0, "property '" << k << "' must be positive");
         c.gpu.clock_ghz = *v;
       }},
      {"gpu.mem_latency_ns",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_double(k);
         GHS_REQUIRE(*v > 0.0, "property '" << k << "' must be positive");
         c.gpu.mem_latency = from_nanoseconds(*v);
       }},
      {"gpu.max_outstanding_loads_per_warp",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_positive_int(c.gpu.max_outstanding_loads_per_warp, p, k);
       }},
      {"gpu.um_hbm_efficiency",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_double(k);
         GHS_REQUIRE(*v > 0.0 && *v <= 1.0,
                     "property '" << k << "' must be in (0, 1]");
         c.gpu.um_hbm_efficiency = *v;
       }},
      {"gpu.remote_read_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.gpu.remote_read_bw, p, k);
       }},
      // --- cpu ---
      {"cpu.cores",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_positive_int(c.cpu.cores, p, k);
       }},
      {"cpu.aggregate_local_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.cpu.aggregate_local_bw, p, k);
       }},
      {"cpu.remote_read_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.cpu.remote_read_bw, p, k);
       }},
      {"cpu.socket_stream_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.cpu.socket_stream_bw, p, k);
       }},
      {"cpu.per_core_stream_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.cpu.per_core_stream_bw, p, k);
       }},
      // --- um ---
      {"um.mode",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_string(k);
         if (*v == "fault-eager") {
           c.um.mode = um::MigrationMode::kFaultEager;
         } else if (*v == "access-counter") {
           c.um.mode = um::MigrationMode::kAccessCounter;
         } else if (*v == "none") {
           c.um.mode = um::MigrationMode::kNone;
         } else {
           GHS_REQUIRE(false, "property '" << k << "': unknown mode '" << *v
                                           << "'");
         }
       }},
      {"um.fault_migration_gbps",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_gbps(c.um.fault_migration_bw, p, k);
       }},
      {"um.gpu_access_threshold",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_positive_int(c.um.gpu_access_threshold, p, k);
       }},
      {"um.cpu_access_threshold",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_int(k);
         GHS_REQUIRE(*v >= 0, "property '" << k << "' must be >= 0");
         c.um.cpu_access_threshold = static_cast<int>(*v);
       }},
      {"um.page_size_mib",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_int(k);
         GHS_REQUIRE(*v > 0, "property '" << k << "' must be positive");
         c.um.page_size = *v * kMiB;
       }},
      // --- omp ---
      {"omp.default_threads",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         set_positive_int(c.omp.heuristic.default_threads, p, k);
       }},
      {"omp.grid_clamp",
       [](const Properties& p, const std::string& k, SystemConfig& c) {
         const auto v = p.get_int(k);
         GHS_REQUIRE(*v > 0, "property '" << k << "' must be positive");
         c.omp.heuristic.grid_clamp = *v;
       }},
  };
  return map;
}

}  // namespace

void apply_properties(const Properties& props, SystemConfig& config) {
  for (const auto& key : props.keys()) {
    const auto it = setters().find(key);
    GHS_REQUIRE(it != setters().end(), "unknown config key '" << key << "'");
    it->second(props, key, config);
  }
}

SystemConfig load_system_config(const std::string& path) {
  SystemConfig config = gh200_config();
  apply_properties(Properties::load_file(path), config);
  return config;
}

}  // namespace ghs::core
