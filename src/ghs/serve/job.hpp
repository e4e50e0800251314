// Request types of the reduction service: a Job is one tenant asking for
// one sum reduction (case, element count, optional deadline); JobTimes is
// what the service keeps of each served job; a JobRecord is what its
// completion hook is handed. Everything is in simulated time, so a served
// workload is bit-reproducible.
#pragma once

#include <cstdint>

#include "ghs/trace/context.hpp"
#include "ghs/util/units.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::serve {

using JobId = std::int64_t;

/// Processor a job was placed on by the scheduler.
enum class Placement : std::uint8_t { kGpu, kCpu };

const char* placement_name(Placement placement);

struct Job {
  JobId id = 0;
  workload::CaseId case_id = workload::CaseId::kC1;
  std::int64_t elements = 0;
  /// Absolute simulated arrival time.
  SimTime arrival = 0;
  /// Absolute completion deadline; 0 = best-effort (no deadline).
  SimTime deadline = 0;
  /// Tenant hands over a managed (unified-memory) buffer instead of an
  /// explicitly mapped one: service cost then includes the page migration
  /// the first GPU pass triggers. Unified jobs are GPU-only.
  bool unified = false;
  /// Tenant identity, used by the cluster router's consistent-hash policy
  /// (and, later, per-tenant caching). The single-node service ignores it,
  /// so the default keeps every existing workload byte-identical.
  std::int64_t tenant = 0;
  /// Cluster node whose LPDDR5X holds the job's source array; -1 means the
  /// data is local to whichever node serves the job. Only the cluster
  /// layer reads it — a job served by a standalone service never pays a
  /// transfer.
  int source_node = -1;
  /// Failed-launch retries already spent on this job (0 = first attempt).
  /// Maintained by the service's retry machinery; tenants leave it at 0.
  int attempt = 0;
  /// Root span context of the job's trace, assigned at admission when the
  /// service runs with a tracer; tenants leave it default. Invalid (all
  /// zeros) on untraced runs, so trace-off behaviour is unchanged.
  trace::Context ctx;
  /// When the job last entered the admission queue (arrival, or the requeue
  /// instant for a retry). Service bookkeeping for the serve.queue span.
  SimTime enqueued = 0;

  Bytes bytes() const {
    return elements * workload::case_spec(case_id).element_size;
  }
};

/// The 24 bytes the service keeps per served job, in completion order:
/// all the latency report and the SLO feed read. `start` is the launch's
/// start.
struct JobTimes {
  SimTime arrival = 0;
  SimTime start = 0;
  SimTime completion = 0;

  SimTime queue_wait() const { return start - arrival; }
  SimTime latency() const { return completion - arrival; }
};

/// The completion hook's argument: one served job with its placement and
/// launch. `launch_id` groups jobs that were batched into the same device
/// launch; all jobs of a launch share start/completion.
struct JobRecord {
  Job job;
  Placement placement = Placement::kGpu;
  std::int64_t launch_id = -1;
  SimTime start = 0;
  SimTime completion = 0;
};

}  // namespace ghs::serve
