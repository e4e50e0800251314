// Shared CLI plumbing for the figure/table bench binaries.
//
// Every bench accepts:
//   --cases=all|C1|C2|C3|C4[,..]  cases to run
//   --iters=N                     timed repetitions (Listing 6/8's N)
//   --elements=M                  input size (0 = the paper's M per case)
//   --csv                         machine-readable output
// Defaults favour a quick full run of `for b in build/bench/*; do $b; done`;
// pass --iters=200 to execute the paper's exact protocol. A bad value of
// any of them exits 2 with one "program: message" line before the bench
// simulates anything (bench/flags.hpp).
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ghs/core/system_config.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::bench {

struct CommonOptions {
  std::vector<workload::CaseId> cases;
  int iterations = 0;
  std::int64_t elements = 0;
  bool csv = false;
  /// GH200 defaults, or overrides from --config=FILE (see
  /// ghs/core/config_io.hpp for the key list).
  core::SystemConfig config;
  /// --metrics-out destination ("" = telemetry off). The file receives the
  /// Prometheus exposition; the JSON snapshot lands at the same path with
  /// ".json" appended.
  std::string metrics_out;
  /// Live instruments when --metrics-out was given (shared, so copies of
  /// the options point at the same registry).
  std::shared_ptr<telemetry::Registry> registry;

  /// The sink to hand to SweepOptions/ServiceOptions/...: the registry and
  /// nothing else, since the snapshot is all a bench writes; all-null when
  /// telemetry is off.
  telemetry::Sink telemetry() const {
    return telemetry::Sink{registry.get()};
  }
};

class CommonCli {
 public:
  CommonCli(std::string program, std::string description,
            int default_iterations);

  /// Registers the shared options; callers may add more before parse().
  Cli& cli() { return cli_; }

  CommonOptions parse(int argc, const char* const* argv);

  /// Writes the --metrics-out files (write_metrics_files); no-op when the
  /// flag was not given.
  void write_metrics(const CommonOptions& options) const;

 private:
  std::string program_;
  Cli cli_;
  const std::string* cases_;
  const long long* iters_;
  const long long* elements_;
  const bool* csv_;
  const std::string* config_;
  const std::string* metrics_out_;
};

/// Prints the "paper reports ..." reference line benches emit under each
/// reproduced artefact (suppressed in CSV mode).
void print_paper_reference(bool csv, const std::string& text);

/// A run whose --iters repetitions do not fit: the simulated clock or a
/// byte or event count would pass 2^63 (ghs::OverflowError, thrown once
/// the run meets it). Prints one Cli-style line naming --iters and returns
/// main's exit status, 2, as for a bad flag.
int iterations_overflow(const std::string& program,
                        const OverflowError& error);

}  // namespace ghs::bench
