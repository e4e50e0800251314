// ChromeTraceExporter: the Chrome/Perfetto export of a Tracer.
//
// The exporter maps the capture the way Perfetto expects a real system
// trace: one *process* per device (H100 GPU, Grace CPU, reduction
// service), one *thread* per track, span-context ids rendered into each
// event's args, and flow events stitching the spans of one trace together
// (queue wait on the service process -> execute on a device process), so
// following a single job across devices is one click in the viewer.
//
// Output is deterministic: events are emitted in recording order and flow
// groups in trace-id order, so two runs of the same (plan, seed) write
// byte-identical files. Every `ts` and `dur` is exact to the picosecond:
// microseconds with six decimals, written from the integer sim time.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "ghs/trace/tracer.hpp"

namespace ghs::trace {

/// One point on a Perfetto counter track; timestamps share the span
/// timebase, so counters line up under the span trees.
struct CounterSample {
  SimTime at = 0;
  double value = 0.0;
};

/// A named counter track ("ph":"C" events) rendered on the telemetry
/// process; ghs::timeseries builds these from scraped series.
struct CounterTrack {
  std::string name;
  std::vector<CounterSample> samples;
};

/// One coalesced profiler observation: the device held this folded stack
/// for [begin, end].
struct ProfileSlice {
  std::string name;
  SimTime begin = 0;
  SimTime end = 0;
};

/// A per-device profiler thread ("ph":"X" slices) rendered on the
/// profiler process; ghs::profile builds these from its sample chain.
struct ProfileTrack {
  std::string name;
  std::vector<ProfileSlice> slices;
};

class ChromeTraceExporter {
 public:
  explicit ChromeTraceExporter(const Tracer& tracer);

  /// Adds a counter track to the export. With no tracks added the output
  /// is byte-identical to a counter-free build.
  void add_counter_track(CounterTrack track);

  /// Adds a profiler slice track. Same gate as counters: with none added
  /// the output is byte-identical to a profiler-free build.
  void add_profile_track(ProfileTrack track);

  void write(std::ostream& os) const;

  /// Process ("pid") a track renders under: 1 = H100 GPU, 2 = Grace CPU,
  /// 3 = reduction service / runtime. Counter tracks render under
  /// kTelemetryPid, profiler slice tracks under kProfilePid.
  static int process_of(Track track);
  static const char* process_name(int pid);
  static constexpr int kTelemetryPid = 4;
  static constexpr int kProfilePid = 5;

 private:
  const Tracer& tracer_;
  std::vector<CounterTrack> counters_;
  std::vector<ProfileTrack> profiles_;
};

}  // namespace ghs::trace
