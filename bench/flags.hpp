// Flag validation and output files shared by the bench front ends: the
// loadgens' Harness and the paper benches' CommonCli (header-only: the
// loadgens do not link ghsum_bench_common).
//
// A bad flag, name, schedule or output directory exits 2 with one
// "program: message" line before any simulated time passes, the shape Cli
// uses for an unknown flag; an error thrown once a run has started is a
// bug and aborts.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/units.hpp"

namespace ghs::bench {

/// Validates a numeric flag Cli-style (stderr + exit 2), so `--jobs=0`,
/// `--rate=-1` or `--iters=0` fails the same way everywhere.
template <typename T>
inline void require_positive(const std::string& program, const char* flag,
                             T value) {
  if (!(value > T{0})) {
    std::cerr << program << ": " << flag << " must be > 0, got " << value
              << "\n";
    std::exit(2);
  }
}

/// Validates a duration or count flag that may be zero, Cli-style.
inline void require_non_negative(const std::string& program,
                                 const char* flag, long long value) {
  if (value < 0) {
    std::cerr << program << ": " << flag << " must be >= 0, got " << value
              << "\n";
    std::exit(2);
  }
}

/// Validates an integer flag against [lo, hi], Cli-style.
inline void require_in_range(const std::string& program, const char* flag,
                             long long value, long long lo, long long hi) {
  if (value < lo || value > hi) {
    std::cerr << program << ": " << flag << " must be in [" << lo << ", "
              << hi << "], got " << value << "\n";
    std::exit(2);
  }
}

/// Converts a microsecond flag (a deadline, an interval, a think time) to
/// simulated time, Cli-style: a negative value, or one whose picoseconds
/// do not fit SimTime, exits 2 naming the flag.
inline SimTime micros_or_exit(const std::string& program, const char* flag,
                              long long micros) {
  require_non_negative(program, flag, micros);
  constexpr long long kMaxMicros =
      std::numeric_limits<SimTime>::max() / kMicrosecond;
  if (micros > kMaxMicros) {
    std::cerr << program << ": " << flag << " must be at most " << kMaxMicros
              << " (the simulated clock's range), got " << micros << "\n";
    std::exit(2);
  }
  return micros * kMicrosecond;
}

/// Validates a sampling-fraction flag Cli-style (stderr + exit 2): the
/// trace head sampler and friends take a probability, so anything outside
/// [0, 1] is a spelling mistake, not a configuration.
inline void require_fraction(const std::string& program, const char* flag,
                             double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    std::cerr << program << ": " << flag << " must be in [0, 1], got "
              << value << "\n";
    std::exit(2);
  }
}

/// Runs `parse` over flag text (a name, a plan, a schedule, a config
/// file) and returns its result; a ghs::Error it throws is a bad flag, so
/// it becomes a Cli-style "program: message" and exit 2. Only for parsing
/// before a run: errors thrown once simulation starts are bugs and must
/// abort.
template <typename Parse>
auto parse_flag_or_exit(const std::string& program, Parse&& parse)
    -> decltype(parse()) {
  try {
    return parse();
  } catch (const Error& error) {
    std::cerr << program << ": " << error.what() << "\n";
    std::exit(2);
  }
}

/// Exits 2 with a Cli-style stderr message when `path` names a file in a
/// directory that does not exist. "" (feature off) and bare filenames
/// (current directory) pass. Call right after parse_or_exit, before the
/// run starts.
inline void require_writable_path(const std::string& program,
                                  const std::string& path) {
  if (path.empty()) return;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec)) {
    std::cerr << program << ": cannot write " << path << ": directory '"
              << parent.string() << "' does not exist\n";
    std::exit(2);
  }
}

/// Opens `path` for writing, exiting 2 Cli-style on failure.
inline std::ofstream open_output_or_exit(const std::string& program,
                                         const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << program << ": cannot write " << path << "\n";
    std::exit(2);
  }
  return out;
}

/// The --metrics-out files: the Prometheus exposition at `path`, volatile
/// instruments included, and the JSON snapshot at `path` + ".json",
/// without them, so same-seed snapshots match byte for byte.
inline void write_metrics_files(const std::string& program,
                                const std::string& path,
                                const telemetry::Registry& registry) {
  {
    telemetry::ExportOptions prom_options;
    prom_options.include_volatile = true;
    auto prom = open_output_or_exit(program, path);
    telemetry::write_prometheus(prom, registry, prom_options);
  }
  auto snapshot = open_output_or_exit(program, path + ".json");
  telemetry::write_json_snapshot(snapshot, registry);
  snapshot << "\n";
}

}  // namespace ghs::bench
