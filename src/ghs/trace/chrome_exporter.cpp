#include "ghs/trace/chrome_exporter.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "ghs/util/strings.hpp"

namespace ghs::trace {

namespace {

/// Chrome trace timestamps are microseconds. Simulated picoseconds are
/// written exactly, as whole microseconds, a dot and six digits, with no
/// floating point in between. `ps` is never negative: spans, instants,
/// samples and slices all lie in simulated time.
void write_us(std::ostream& os, SimTime ps) {
  char frac[7] = "000000";
  SimTime rest = ps % kMicrosecond;
  for (int i = 5; i >= 0; --i) {
    frac[i] = static_cast<char>('0' + rest % 10);
    rest /= 10;
  }
  os << ps / kMicrosecond << '.' << frac;
}

}  // namespace

ChromeTraceExporter::ChromeTraceExporter(const Tracer& tracer)
    : tracer_(tracer) {}

int ChromeTraceExporter::process_of(Track track) {
  switch (track) {
    case Track::kGpu:
    case Track::kGpuWaves:
    case Track::kUmMigration:
      return 1;
    case Track::kCpu:
      return 2;
    case Track::kRuntime:
    case Track::kServer:
    case Track::kJobs:
      return 3;
  }
  return 3;
}

const char* ChromeTraceExporter::process_name(int pid) {
  switch (pid) {
    case 1:
      return "H100 GPU";
    case 2:
      return "Grace CPU";
    case 3:
      return "Reduction service";
    case kTelemetryPid:
      return "Telemetry";
    case kProfilePid:
      return "Profiler";
  }
  return "?";
}

void ChromeTraceExporter::add_counter_track(CounterTrack track) {
  counters_.push_back(std::move(track));
}

void ChromeTraceExporter::add_profile_track(ProfileTrack track) {
  profiles_.push_back(std::move(track));
}

void ChromeTraceExporter::write(std::ostream& os) const {
  const auto spans = tracer_.spans();
  const auto instants = tracer_.instants();

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() {
    if (!first) os << ",";
    first = false;
  };

  // Process and thread metadata: every track gets its (pid, tid) label so
  // the viewer groups devices even before their first event.
  for (int pid = 1; pid <= 3; ++pid) {
    sep();
    os << "{\"pid\":" << pid
       << ",\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\",\"args\":"
       << "{\"name\":\"" << process_name(pid) << "\"}}";
  }
  for (int t = 0; t <= static_cast<int>(kLastTrack); ++t) {
    const Track track = static_cast<Track>(t);
    sep();
    os << "{\"pid\":" << process_of(track) << ",\"tid\":" << t
       << ",\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << track_name(track) << "\"}}";
  }
  // Counter metadata exists only when tracks were added, so counter-free
  // exports stay byte-identical to pre-counter builds.
  if (!counters_.empty()) {
    sep();
    os << "{\"pid\":" << kTelemetryPid
       << ",\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\",\"args\":"
       << "{\"name\":\"" << process_name(kTelemetryPid) << "\"}}";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      sep();
      os << "{\"pid\":" << kTelemetryPid << ",\"tid\":" << i
         << ",\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      write_json_escaped(os, counters_[i].name);
      os << "\"}}";
    }
  }
  // Profiler metadata under the same gate, so profiler-free exports stay
  // byte-identical to pre-profiler builds.
  if (!profiles_.empty()) {
    sep();
    os << "{\"pid\":" << kProfilePid
       << ",\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\",\"args\":"
       << "{\"name\":\"" << process_name(kProfilePid) << "\"}}";
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      sep();
      os << "{\"pid\":" << kProfilePid << ",\"tid\":" << i
         << ",\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      write_json_escaped(os, profiles_[i].name);
      os << "\"}}";
    }
  }

  const auto write_ctx_args = [&](const Context& ctx,
                                  const std::string& detail) {
    os << ",\"args\":{";
    bool inner_first = true;
    const auto key = [&](const char* name) {
      if (!inner_first) os << ",";
      inner_first = false;
      os << "\"" << name << "\":";
    };
    if (!detail.empty()) {
      key("detail");
      os << "\"";
      write_json_escaped(os, detail);
      os << "\"";
    }
    if (ctx.valid()) {
      key("trace_id");
      os << "\"" << hex16(ctx.trace_id) << "\"";
      key("span_id");
      os << ctx.span_id;
      key("parent_id");
      os << ctx.parent_id;
    }
    os << "}";
  };

  for (const auto& span : spans) {
    sep();
    os << "{\"pid\":" << process_of(span.track)
       << ",\"tid\":" << static_cast<int>(span.track)
       << ",\"ph\":\"X\",\"ts\":";
    write_us(os, span.begin);
    os << ",\"dur\":";
    write_us(os, span.end - span.begin);
    os << ",\"name\":\"";
    write_json_escaped(os, span.name);
    os << "\"";
    if (!span.detail.empty() || span.ctx.valid()) {
      write_ctx_args(span.ctx, span.detail);
    }
    os << "}";
  }
  for (const auto& instant : instants) {
    sep();
    os << "{\"pid\":" << process_of(instant.track)
       << ",\"tid\":" << static_cast<int>(instant.track)
       << ",\"ph\":\"i\",\"ts\":";
    write_us(os, instant.at);
    os << ",\"s\":\"t\",\"name\":\"";
    write_json_escaped(os, instant.name);
    os << "\"";
    if (instant.ctx.valid()) {
      write_ctx_args(instant.ctx, {});
    }
    os << "}";
  }

  // One flow per trace id, stepping through its spans in begin order
  // (record order breaks ties, keeping the file deterministic): the viewer
  // draws arrows queue -> execute across device processes.
  std::map<std::uint64_t, std::vector<const Span*>> flows;
  for (const auto& span : spans) {
    if (span.ctx.valid()) flows[span.ctx.trace_id].push_back(&span);
  }
  for (const auto& [trace_id, members] : flows) {
    if (members.size() < 2) continue;
    std::vector<const Span*> ordered = members;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Span* a, const Span* b) {
                       return a->begin < b->begin;
                     });
    for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
      const Span* from = ordered[i];
      const Span* to = ordered[i + 1];
      sep();
      os << "{\"pid\":" << process_of(from->track)
         << ",\"tid\":" << static_cast<int>(from->track)
         << ",\"ph\":\"s\",\"id\":\"" << hex16(trace_id)
         << "\",\"cat\":\"job\",\"name\":\"job flow\",\"ts\":";
      write_us(os, from->begin);
      os << "}";
      sep();
      os << "{\"pid\":" << process_of(to->track)
         << ",\"tid\":" << static_cast<int>(to->track)
         << ",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"" << hex16(trace_id)
         << "\",\"cat\":\"job\",\"name\":\"job flow\",\"ts\":";
      write_us(os, to->begin);
      os << "}";
    }
  }

  // Counter tracks last: "ph":"C" samples on the telemetry process, one
  // tid per track, values in one fixed format for byte stability.
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    for (const auto& sample : counters_[i].samples) {
      sep();
      os << "{\"pid\":" << kTelemetryPid << ",\"tid\":" << i
         << ",\"ph\":\"C\",\"ts\":";
      write_us(os, sample.at);
      os << ",\"name\":\"";
      write_json_escaped(os, counters_[i].name);
      os << "\",\"args\":{\"value\":" << format_fixed(sample.value, 6)
         << "}}";
    }
  }

  // Profiler slice tracks after counters: "ph":"X" spans per device
  // thread, one slice per coalesced sample run.
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    for (const auto& slice : profiles_[i].slices) {
      sep();
      os << "{\"pid\":" << kProfilePid << ",\"tid\":" << i
         << ",\"ph\":\"X\",\"ts\":";
      write_us(os, slice.begin);
      os << ",\"dur\":";
      write_us(os, slice.end - slice.begin);
      os << ",\"name\":\"";
      write_json_escaped(os, slice.name);
      os << "\"}";
    }
  }

  os << "]";
  // Sampling metadata appears only when a sampler is active, so rate-1.0
  // output stays byte-identical to unsampled output.
  if (tracer_.sampler_active()) {
    os << ",\"sampling\":{\"rate\":" << format_fixed(tracer_.sample_rate(), 6)
       << ",\"seed\":" << tracer_.sampler_seed()
       << ",\"dropped_by_sampler\":" << tracer_.dropped_by_sampler() << "}";
  }
  os << "}";
}

}  // namespace ghs::trace
