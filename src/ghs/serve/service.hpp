// ReductionService: the multi-tenant serving loop. Tenants submit jobs
// (arrivals are simulator events); the admission queue applies
// backpressure; the scheduler policy places work on the simulated H100 or
// the Grace CPU, which the service time-shares; every completion adds a
// 24-byte JobTimes entry and its bytes, memory mode and deadline outcome
// to the report's running totals. One service run is one
// deterministic discrete-event simulation — same submissions, same seed,
// same report, byte for byte.
//
// A launch is one kernel (or one host parallel region) serving one job or
// a batch of small same-case jobs — batching amortises the per-launch
// runtime overhead exactly the way fusing tiny reductions does on the real
// machine. Every launch is recorded as a Track::kServer span so a served
// workload renders in the Chrome-trace timeline.
//
// With a fault::Injector attached (ServiceOptions::injector) launches
// become the failure surface — bandwidth brown-outs stretch a launch's
// service time, device-down windows and transient kernel faults turn its
// completion into a failure — and the loop is self-healing: failed
// launches are retried with capped exponential backoff plus deterministic
// jitter, a per-device circuit breaker stops hammering a sick device and
// probes it half-open after a cool-down, jobs that can no longer make
// their deadline are shed instead of retried, and while the GPU breaker
// is open non-unified jobs fall back to the Grace CPU (degraded
// placement). Every admitted job therefore ends exactly one way: served,
// rejected at admission, or shed — chaos never loses work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ghs/core/reduce.hpp"
#include "ghs/fault/breaker.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/job.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/queue.hpp"
#include "ghs/serve/service_model.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/stats/summary.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::serve {

namespace detail {

/// One link of a chain_arrivals stream. Running it hands the batch on to
/// the next link's event, so the batch lives exactly as long as the chain.
template <typename Arrive>
class ArrivalLink {
 public:
  ArrivalLink(sim::Simulator& sim, std::vector<Job> jobs, Arrive arrive)
      : chain_(std::make_unique<Chain>(
            Chain{sim, std::move(jobs), 0, std::move(arrive)})) {}

  void operator()() {
    Chain& chain = *chain_;
    // `job` stays valid through arrive(): the batch is owned by the next
    // link's pending event, or still by this link when it is the last.
    const Job& job = chain.jobs[chain.next++];
    if (chain.next < chain.jobs.size()) {
      chain.sim.schedule_at(chain.jobs[chain.next].arrival, std::move(*this));
    }
    chain.arrive(job);
  }

 private:
  struct Chain {
    sim::Simulator& sim;
    std::vector<Job> jobs;
    std::size_t next;
    Arrive arrive;
  };
  std::unique_ptr<Chain> chain_;
};

}  // namespace detail

/// Feeds a whole batch into `sim` as one chained arrival stream, calling
/// `arrive(const Job&)` at each job's arrival time. The queue holds one
/// pending arrival per batch however large the batch is. A sorted batch
/// costs one O(n) scan; an out-of-order one is stable-sorted by arrival
/// first, so equal arrivals keep the caller's order. Each link schedules
/// its successor before it calls `arrive`, so a same-time successor still
/// runs ahead of the work that arrival schedules.
template <typename Arrive>
void chain_arrivals(sim::Simulator& sim, std::vector<Job> jobs,
                    Arrive arrive) {
  if (jobs.empty()) return;
  const auto by_arrival = [](const Job& a, const Job& b) {
    return a.arrival < b.arrival;
  };
  if (!std::is_sorted(jobs.begin(), jobs.end(), by_arrival)) {
    std::stable_sort(jobs.begin(), jobs.end(), by_arrival);
  }
  GHS_REQUIRE(jobs.front().arrival >= sim.now(),
              "job " << jobs.front().id << " arrives in the past");
  const SimTime first = jobs.front().arrival;  // read before `jobs` moves
  sim.schedule_at(first, detail::ArrivalLink<Arrive>(sim, std::move(jobs),
                                                     std::move(arrive)));
}

/// Launch attempts per job, the first included, before a failing job is
/// shed (only a run with a fault::Injector ever retries).
inline constexpr int kMaxAttempts = 4;

struct BatchOptions {
  bool enable = true;
  /// Jobs per launch, including the one the policy selected.
  static constexpr int max_jobs = 8;
  /// Only jobs at or below this element count coalesce.
  static constexpr std::int64_t small_elements = 1 << 20;
  /// Ceiling on a batch's summed element count.
  static constexpr std::int64_t max_batch_elements = 1 << 23;
};

struct ServiceOptions {
  /// Admission-queue bound; arrivals beyond it are rejected.
  std::size_t queue_depth = 64;
  /// Whether the service launches on the Grace CPU too (policies that
  /// never place there are unaffected).
  bool use_cpu = true;
  BatchOptions batching;
  /// Metric instruments + flight recorder for the service and its
  /// simulator (null members disable).
  telemetry::Sink telemetry;
  /// Fault injector driving chaos for this run. Null — or an injector with
  /// an empty plan — leaves every code path and report byte-identical to a
  /// fault-unaware service.
  fault::Injector* injector = nullptr;
  /// Embeddability hook: when set, the service schedules onto this
  /// simulator instead of owning one, so several services (the nodes of a
  /// ghs::cluster fleet) share a single clock and event queue. The caller
  /// then drives the run: Service::run() still drains the shared queue,
  /// which in a cluster means running every node. Null (the default)
  /// preserves the standalone self-contained service.
  sim::Simulator* external_sim = nullptr;
  /// Cost-attribution recorder (ghs::profile). When set, the service
  /// charges every launch interval, queue wait, and retry backoff to the
  /// recorder's ledger. Null (the default) takes no profiling branches and
  /// keeps every output byte-identical to an unprofiled build.
  profile::Recorder* profile = nullptr;
  /// Cluster node this service runs as; -1 (the default) is a standalone
  /// service. A node index labels every instrument of the service
  /// node="i", prefixes its flight-recorder details "node=i ", and is the
  /// node of its cost keys (standalone services charge node 0).
  int node = -1;
};

/// Latency-style distribution in milliseconds.
struct LatencyStats {
  std::size_t count = 0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  stats::Percentiles pct;  // p50/p95/p99/p999
};

/// Zero-filled for empty input; a single sample pins every percentile to
/// that sample. The mean sums `ms` in its given order; the percentiles
/// then reorder it, so callers move their buffer in.
LatencyStats make_latency_stats(std::vector<double> ms);

/// Writes `"key":{...}`, the stats as one JSON member, in the fixed
/// format of every report.
void write_latency_json(std::ostream& os, const char* key,
                        const LatencyStats& stats);

struct ServiceReport {
  std::string policy;
  std::int64_t submitted = 0;
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_missed = 0;
  std::int64_t launches = 0;
  std::int64_t multi_job_launches = 0;
  std::int64_t batched_jobs = 0;
  std::int64_t gpu_jobs = 0;
  std::int64_t cpu_jobs = 0;
  /// Jobs served through managed (unified) memory.
  std::int64_t um_jobs = 0;
  std::size_t queue_high_watermark = 0;
  /// First arrival to last completion.
  SimTime makespan = 0;
  Bytes bytes_served = 0;
  double throughput_jobs_per_s = 0.0;
  double throughput_gbps = 0.0;
  LatencyStats latency;
  LatencyStats queue_wait;
  /// Geometry-cache counters (bandwidth-aware policy; zero otherwise).
  std::int64_t tuner_hits = 0;
  std::int64_t tuner_misses = 0;
  /// Fault-handling accounting, populated (and serialised) only when the
  /// service ran with a fault injector, so fault-free reports stay
  /// byte-identical to pre-fault builds.
  bool fault_aware = false;
  /// Retry launches scheduled after failures.
  std::int64_t retries = 0;
  /// Failed GPU launches (injected kernel faults + outage kills).
  std::int64_t gpu_failures = 0;
  /// Breaker closed/half-open -> open transitions, both devices.
  std::int64_t breaker_opens = 0;
  /// Jobs dropped by the retry machinery (budget exhausted, deadline
  /// unreachable, or requeue refused); never silently lost.
  std::int64_t shed = 0;
  /// Jobs served on the Grace CPU through degraded placement while the
  /// GPU breaker was open.
  std::int64_t fallback_cpu_jobs = 0;

  /// One JSON object, stable key order, deterministic formatting.
  void write_json(std::ostream& os) const;
};

class ReductionService {
 public:
  ReductionService(std::unique_ptr<SchedulerPolicy> policy,
                   ServiceModel& model, ServiceOptions options = {},
                   trace::Tracer* tracer = nullptr);

  sim::Simulator& sim() { return sim_; }

  /// Schedules the job's arrival (job.arrival must be >= sim().now()).
  void submit(const Job& job);
  /// Submits a whole workload through chain_arrivals: one arrival in the
  /// simulator at a time instead of one event per job, so the event queue
  /// stays shallow at 10^6-job scale. An out-of-order batch is sorted by
  /// arrival first.
  void submit_all(const std::vector<Job>& jobs);
  /// Rvalue batches (e.g. a generator's return value) are adopted without
  /// copying the job vector.
  void submit_all(std::vector<Job>&& jobs);

  /// Fires once per job at its completion (closed-loop generators submit
  /// the tenant's next job from here). The service keeps no JobRecord:
  /// a caller that needs placement, launch or trace context per job
  /// collects them here.
  void set_on_complete(std::function<void(const JobRecord&)> hook);

  /// Embeddability hooks for a composing layer (ghs::cluster): fire after
  /// the service has recorded the outcome itself, so node-level accounting
  /// is unchanged and the composer can add its own (spill the rejected job
  /// to a peer, count a cluster-level shed, ...).
  void set_on_reject(std::function<void(const Job&, SimTime)> hook);
  void set_on_shed(std::function<void(const Job&, SimTime)> hook);
  /// Fires on every circuit-breaker transition (fault-injected runs only);
  /// the cluster router uses GPU-open transitions to steal queued work.
  void set_on_breaker_transition(
      std::function<void(Placement, fault::BreakerState, fault::BreakerState,
                         SimTime)>
          hook);

  /// Work stealing: removes and returns up to `max_jobs` queued jobs
  /// (oldest first). The jobs stay counted in this node's `submitted`, so
  /// the stealing layer owns their terminal accounting from here on. The
  /// queue gauge is updated; nothing is dispatched.
  std::vector<Job> steal_queued(std::size_t max_jobs);

  /// Whole-node failure hooks for the cluster's membership layer. crash()
  /// kills the node process: the admission queue is emptied (the composing
  /// layer's write-ahead journal owns those jobs now), arrivals are
  /// refused through the normal rejection path, and every launch
  /// completion or retry requeue belonging to the old incarnation is
  /// discarded via an epoch check — a launch in flight at the crash dies
  /// with the node instead of completing after it. restore() brings the
  /// process back with a cold empty queue. Standalone services never
  /// crash, so these change nothing for existing runs.
  void crash();
  void restore();
  bool alive() const { return alive_; }

  /// Drains the event queue: runs arrivals, scheduling, and service to
  /// completion.
  void run();

  /// Every served job's arrival, start and completion, in completion
  /// order.
  const std::vector<JobTimes>& served_times() const { return served_; }
  const std::vector<Job>& rejected_jobs() const { return rejected_; }
  /// Jobs dropped by the retry machinery (fault runs only).
  const std::vector<Job>& shed_jobs() const { return shed_; }
  /// Simulated instants the corresponding rejected_/shed_ entry was
  /// dropped at (same index), so SLO monitors can place bad events in
  /// time.
  const std::vector<SimTime>& rejected_times() const { return rejected_at_; }
  const std::vector<SimTime>& shed_times() const { return shed_at_; }
  const AdmissionQueue& queue() const { return queue_; }
  /// Whether a launch occupies `device` right now.
  bool busy(Placement device) const;
  SchedulerPolicy& policy() { return *policy_; }
  const fault::CircuitBreaker& breaker(Placement device) const {
    return device == Placement::kGpu ? gpu_breaker_ : cpu_breaker_;
  }

  ServiceReport report() const;

  /// Telemetry-side totals the profile::CostLedger reconciles against:
  /// the devices' busy time and unified-migration bytes (standalone
  /// services move no interconnect/replay bytes).
  profile::ConservationTotals conservation_totals() const;

 private:
  /// Node of this service's cost keys: its cluster node, 0 standalone.
  std::int16_t cost_node() const {
    return static_cast<std::int16_t>(std::max(options_.node, 0));
  }
  void on_arrival(Job job);
  void dispatch_all();
  void dispatch(Placement device);
  void update_queue_gauge();
  fault::CircuitBreaker& breaker_ref(Placement device) {
    return device == Placement::kGpu ? gpu_breaker_ : cpu_breaker_;
  }
  /// Runs `jobs` as one launch on the idle `device` from sim.now():
  /// prices the batch, applies the fault plan, emits the launch's spans,
  /// counters and cost charges, and schedules its completion. `tuning` is
  /// the GPU geometry (ignored for CPU launches).
  void launch(Placement device, std::vector<Job> jobs,
              const core::ReduceTuning& tuning);
  /// The launch's completion in the incarnation that started it: served
  /// jobs are recorded, failed ones go to the retry machinery.
  void complete_launch(Placement device, bool failed, std::int64_t launch_id,
                       SimTime begin, const std::vector<Job>& jobs);
  void handle_failed_job(const Job& job);
  void shed_job(const Job& job, const char* reason);
  /// Closes the job's trace with its serve.job root span (traced runs
  /// only). `device` is empty for jobs that never served.
  void record_root_span(const Job& job, SimTime end, const char* outcome,
                        const char* device);
  void schedule_breaker_wake(Placement device, SimTime at);
  void on_breaker_transition(Placement device, fault::BreakerState from,
                             fault::BreakerState to, SimTime at);

  std::unique_ptr<SchedulerPolicy> policy_;
  ServiceModel& model_;
  ServiceOptions options_;
  trace::Tracer* tracer_;
  /// Owned when options_.external_sim is null; all scheduling goes through
  /// sim_, which aliases either the owned simulator or the external one.
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator& sim_;
  AdmissionQueue queue_;
  /// The effective injector: options.injector with an empty plan is
  /// normalised to null, so "no faults" is one code path.
  fault::Injector* injector_;
  fault::CircuitBreaker gpu_breaker_;
  fault::CircuitBreaker cpu_breaker_;
  Rng retry_rng_;
  std::vector<JobTimes> served_;
  /// Report totals over served_, accumulated at completion.
  Bytes bytes_served_ = 0;
  std::int64_t um_jobs_ = 0;
  std::int64_t deadline_missed_ = 0;
  SimTime first_arrival_ = std::numeric_limits<SimTime>::max();
  std::vector<Job> rejected_;
  std::vector<Job> shed_;
  std::vector<SimTime> rejected_at_;
  std::vector<SimTime> shed_at_;
  std::function<void(const JobRecord&)> on_complete_;
  std::function<void(const Job&, SimTime)> on_reject_;
  std::function<void(const Job&, SimTime)> on_shed_;
  std::function<void(Placement, fault::BreakerState, fault::BreakerState,
                     SimTime)>
      on_breaker_;
  std::int64_t submitted_ = 0;
  // Launch accounting; per-device arrays are indexed gpu 0, cpu 1.
  bool busy_[2] = {false, false};
  /// Service time credited at launch, failed launches included.
  SimTime busy_ps_[2] = {0, 0};
  /// Jobs of successful launches, counted at launch.
  std::int64_t device_jobs_[2] = {0, 0};
  std::int64_t launches_ = 0;
  /// Launches that carried more than one job, and the jobs they carried.
  std::int64_t multi_job_launches_ = 0;
  std::int64_t batched_jobs_ = 0;
  /// Failed GPU launches (injected kernel faults + outage kills).
  std::int64_t gpu_failures_ = 0;
  /// Managed-buffer bytes moved by successful unified launches; the
  /// telemetry side of the profile ledger's um.migrate byte conservation.
  Bytes unified_bytes_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t fallback_cpu_jobs_ = 0;
  /// Node-process liveness (cluster crash plans); standalone services stay
  /// alive for their whole run.
  bool alive_ = true;
  /// Incarnation counter, bumped by crash(). Completion and retry
  /// closures capture the epoch they were scheduled under and self-
  /// discard when it no longer matches.
  std::int64_t epoch_ = 0;
  /// "node=i " on a cluster node, prefixed to flight-recorder details so
  /// fleet post-mortems name the node; empty standalone.
  std::string flight_label_;
  SimTime gpu_wake_ = -1;
  SimTime cpu_wake_ = -1;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_submitted_ = nullptr;
  telemetry::Counter* m_admitted_ = nullptr;
  telemetry::Counter* m_rejected_ = nullptr;
  telemetry::Counter* m_completed_ = nullptr;
  telemetry::Gauge* m_queue_depth_ = nullptr;
  telemetry::Histogram* m_latency_ms_ = nullptr;
  telemetry::Histogram* m_queue_wait_ms_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_shed_ = nullptr;
  telemetry::Counter* m_fallback_ = nullptr;
  telemetry::Counter* m_launches_[2] = {nullptr, nullptr};
  telemetry::Counter* m_batched_jobs_ = nullptr;
  /// Non-null only with Sink::timeline (scraped runs).
  telemetry::Counter* m_busy_ps_[2] = {nullptr, nullptr};
  telemetry::Counter* m_breaker_opens_[2] = {nullptr, nullptr};
  telemetry::Gauge* m_breaker_state_[2] = {nullptr, nullptr};
};

}  // namespace ghs::serve
