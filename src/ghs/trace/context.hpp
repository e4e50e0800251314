// Span context: the causal identity a span carries so independent spans
// assemble into one per-request tree. A Context names the trace (one
// served job = one trace), the span itself, and the span's parent; 0 is
// "absent" everywhere, so context-free spans (the pre-existing device and
// runtime spans) keep working unchanged.
//
// All identifiers are deterministic: trace ids derive from the job id via
// SplitMix64 and span ids are handed out sequentially by the Tracer, so
// two runs of the same (plan, seed) produce byte-identical trace files.
#pragma once

#include <cstdint>

namespace ghs::trace {

struct Context {
  /// Groups every span of one request; 0 = no trace.
  std::uint64_t trace_id = 0;
  /// This span's identity within the trace; 0 = no context.
  std::uint64_t span_id = 0;
  /// The causing span; 0 = root of the trace.
  std::uint64_t parent_id = 0;

  bool valid() const { return trace_id != 0; }

  /// Child context under this span (same trace, parent = this span).
  Context child(std::uint64_t child_span_id) const {
    return Context{trace_id, child_span_id, span_id};
  }
};

/// Deterministic trace id for an external key (a serve::JobId): SplitMix64
/// of key+1, nudged away from 0 so a valid context is never mistaken for
/// an absent one.
std::uint64_t derive_trace_id(std::int64_t key);

}  // namespace ghs::trace
