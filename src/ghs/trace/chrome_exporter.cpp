#include "ghs/trace/chrome_exporter.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "ghs/util/writer.hpp"

namespace ghs::trace {

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

  Writer w(os);
  w << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() {
    if (!first) w << ",";
    first = false;
  };
  const auto thread_meta = [&](int pid, std::size_t tid,
                               std::string_view name) {
    sep();
    w << "{\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ph\":\"M\",\"name\":\"thread_name\",\"args\":{\"name\":\""
      << JsonEscaped{name} << "\"}}";
  };
  const auto process_meta = [&](int pid) {
    sep();
    w << "{\"pid\":" << pid
      << ",\"tid\":0,\"ph\":\"M\",\"name\":\"process_name\",\"args\":"
      << "{\"name\":\"" << process_name(pid) << "\"}}";
  };

  // Process and thread metadata: every track gets its (pid, tid) label so
  // the viewer groups devices even before their first event.
  for (int pid = 1; pid <= 3; ++pid) process_meta(pid);
  for (int t = 0; t <= static_cast<int>(kLastTrack); ++t) {
    const Track track = static_cast<Track>(t);
    thread_meta(process_of(track), static_cast<std::size_t>(t),
                track_name(track));
  }
  // Counter metadata exists only when tracks were added, so counter-free
  // exports stay byte-identical to pre-counter builds.
  if (!counters_.empty()) {
    process_meta(kTelemetryPid);
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      thread_meta(kTelemetryPid, i, counters_[i].name);
    }
  }
  // Profiler metadata under the same gate, so profiler-free exports stay
  // byte-identical to pre-profiler builds.
  if (!profiles_.empty()) {
    process_meta(kProfilePid);
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      thread_meta(kProfilePid, i, profiles_[i].name);
    }
  }

  const auto write_ctx_args = [&](const Context& ctx,
                                  const std::string& detail) {
    w << ",\"args\":{";
    if (!detail.empty()) {
      w << "\"detail\":\"" << JsonEscaped{detail} << "\"";
      if (ctx.valid()) w << ",";
    }
    if (ctx.valid()) {
      w << "\"trace_id\":\"" << Hex16{ctx.trace_id}
        << "\",\"span_id\":" << ctx.span_id
        << ",\"parent_id\":" << ctx.parent_id;
    }
    w << "}";
  };
  // A slice on (pid, tid) from `begin` to `end`, args not yet closed.
  const auto open_slice = [&](int pid, int tid, SimTime begin, SimTime end,
                              const std::string& name) {
    sep();
    w << "{\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ph\":\"X\",\"ts\":" << Micros{begin}
      << ",\"dur\":" << Micros{end - begin} << ",\"name\":\""
      << JsonEscaped{name} << "\"";
  };

  for (const auto& span : spans) {
    open_slice(process_of(span.track), static_cast<int>(span.track),
               span.begin, span.end, span.name);
    if (!span.detail.empty() || span.ctx.valid()) {
      write_ctx_args(span.ctx, span.detail);
    }
    w << "}";
  }
  for (const auto& instant : instants) {
    sep();
    w << "{\"pid\":" << process_of(instant.track)
      << ",\"tid\":" << static_cast<int>(instant.track)
      << ",\"ph\":\"i\",\"ts\":" << Micros{instant.at}
      << ",\"s\":\"t\",\"name\":\"" << JsonEscaped{instant.name} << "\"";
    if (instant.ctx.valid()) {
      write_ctx_args(instant.ctx, {});
    }
    w << "}";
  }

  // One flow per trace id, stepping through its spans in begin order
  // (record order breaks ties, keeping the file deterministic): the viewer
  // draws arrows queue -> execute across device processes.
  std::map<std::uint64_t, std::vector<const Span*>> flows;
  for (const auto& span : spans) {
    if (span.ctx.valid()) flows[span.ctx.trace_id].push_back(&span);
  }
  const auto flow_step = [&](const Span* span, std::uint64_t trace_id,
                             const char* phase) {
    sep();
    w << "{\"pid\":" << process_of(span->track)
      << ",\"tid\":" << static_cast<int>(span->track) << ",\"ph\":" << phase
      << ",\"id\":\"" << Hex16{trace_id}
      << "\",\"cat\":\"job\",\"name\":\"job flow\",\"ts\":"
      << Micros{span->begin} << "}";
  };
  for (auto& [trace_id, members] : flows) {
    if (members.size() < 2) continue;
    std::stable_sort(members.begin(), members.end(),
                     [](const Span* a, const Span* b) {
                       return a->begin < b->begin;
                     });
    for (std::size_t i = 0; i + 1 < members.size(); ++i) {
      flow_step(members[i], trace_id, "\"s\"");
      flow_step(members[i + 1], trace_id, "\"f\",\"bp\":\"e\"");
    }
  }

  // Counter tracks last: "ph":"C" samples on the telemetry process, one
  // tid per track, values in one fixed format for byte stability.
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    for (const auto& sample : counters_[i].samples) {
      sep();
      w << "{\"pid\":" << kTelemetryPid << ",\"tid\":" << i
        << ",\"ph\":\"C\",\"ts\":" << Micros{sample.at} << ",\"name\":\""
        << JsonEscaped{counters_[i].name}
        << "\",\"args\":{\"value\":" << Fixed{sample.value, 6} << "}}";
    }
  }

  // Profiler slice tracks after counters: "ph":"X" spans per device
  // thread, one slice per coalesced sample run.
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    for (const auto& slice : profiles_[i].slices) {
      open_slice(kProfilePid, static_cast<int>(i), slice.begin, slice.end,
                 slice.name);
      w << "}";
    }
  }

  w << "]";
  // Sampling metadata appears only when a sampler is active, so rate-1.0
  // output stays byte-identical to unsampled output.
  if (tracer_.sampler_active()) {
    w << ",\"sampling\":{\"rate\":" << Fixed{tracer_.sample_rate(), 6}
      << ",\"seed\":" << tracer_.sampler_seed()
      << ",\"dropped_by_sampler\":" << tracer_.dropped_by_sampler() << "}";
  }
  w << "}";
}

}  // namespace ghs::trace
