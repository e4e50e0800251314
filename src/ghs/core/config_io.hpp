// Applies a properties file to a SystemConfig — the text-file interface to
// the simulated machine. Every tunable has a dotted key; unknown keys are
// an error (so typos do not silently leave the GH200 defaults in place).
//
//   # future-part.properties
//   topology.hbm_gbps = 6500
//   gpu.num_sms       = 160
//   um.mode           = access-counter
//   um.gpu_access_threshold = 8
//
// The supported keys are the entries of the setters() table in
// config_io.cpp.
#pragma once

#include <string>

#include "ghs/core/system_config.hpp"
#include "ghs/util/properties.hpp"

namespace ghs::core {

/// Mutates `config` with every key present in `props`; throws on unknown
/// keys or unparseable values.
void apply_properties(const Properties& props, SystemConfig& config);

/// Convenience: GH200 defaults + overrides from a file.
SystemConfig load_system_config(const std::string& path);

}  // namespace ghs::core
