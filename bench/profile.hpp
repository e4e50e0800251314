// Shared --profile-interval / --profile-out / --cost-report wiring for
// the loadgen benches (header-only, same shape as scrape.hpp).
//
// Each loadgen parses the three flags, validates them through
// profile_settings_or_exit, attaches a profile::Recorder to its service
// (or cluster) when any are set, wraps the run in a Profiler when
// sampling, and funnels the samples into the collapsed-stack file and the
// Perfetto profile tracks. The cost_report JSON array is each loadgen's
// own (one entry per policy or router). With all three flags at their
// defaults no recorder exists and every artefact keeps its exact bytes.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "output_path.hpp"

namespace ghs::bench {

struct ProfileSettings {
  /// Simulated time between profiler samples; 0 = sampling off.
  SimTime interval = 0;
  /// --profile-out destination for collapsed stacks ("" = no dump).
  std::string profile_out;
  /// --cost-report: append the attribution ledger to the JSON report and
  /// print the top-K table on stderr.
  bool cost_report = false;

  /// Whether any profiling output was requested (a Recorder is needed).
  bool enabled() const { return sampling() || cost_report; }
  /// Whether the sampling profiler itself runs.
  bool sampling() const { return interval > 0; }
};

/// Validates the profile flags Cli-style (stderr + exit 2): the interval
/// must be non-negative, --profile-out needs --profile-interval, and the
/// output path's directory must exist.
inline ProfileSettings profile_settings_or_exit(
    const std::string& program, long long profile_interval_us,
    const std::string& profile_out, bool cost_report) {
  if (profile_interval_us < 0) {
    std::cerr << program << ": --profile-interval must be >= 0\n";
    std::exit(2);
  }
  if (!profile_out.empty() && profile_interval_us == 0) {
    std::cerr << program
              << ": --profile-out requires --profile-interval > 0\n";
    std::exit(2);
  }
  require_writable_path(program, profile_out);
  ProfileSettings settings;
  settings.interval = profile_interval_us * kMicrosecond;
  settings.profile_out = profile_out;
  settings.cost_report = cost_report;
  return settings;
}

/// Writes the collapsed-stack file for one profiled run. No-op without a
/// --profile-out path.
inline void write_profile_file(const std::string& program,
                               const ProfileSettings& settings,
                               const profile::Profiler& profiler) {
  if (settings.profile_out.empty()) return;
  auto out = open_output_or_exit(program, settings.profile_out);
  profiler.write_collapsed(out);
}

/// Merges the profiler's per-device slice tracks into a trace export
/// (no-op for an unprofiled run, keeping the file byte-identical).
inline void add_profile_tracks(trace::ChromeTraceExporter& exporter,
                               const profile::Profiler& profiler) {
  for (auto& track : profiler.tracks()) {
    exporter.add_profile_track(std::move(track));
  }
}

}  // namespace ghs::bench
