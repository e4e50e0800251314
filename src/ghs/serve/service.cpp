#include "ghs/serve/service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <string>

#include "ghs/util/error.hpp"
#include "ghs/util/writer.hpp"

namespace ghs::serve {

namespace {

// Retry backoff: retry k waits kBackoffBase * 2^(k-1), capped at
// kBackoffCap, plus a seeded uniform draw in [0, kBackoffJitter * backoff)
// that de-synchronises retry herds without breaking replayability.
constexpr SimTime kBackoffBase = 50 * kMicrosecond;
constexpr SimTime kBackoffCap = 2 * kMillisecond;
constexpr double kBackoffJitter = 0.25;
constexpr std::uint64_t kJitterSeed = 0x6a177e5;

telemetry::Labels node_labels(int node) {
  if (node < 0) return {};
  return {{"node", std::to_string(node)}};
}

fault::Injector* effective_injector(fault::Injector* injector) {
  if (injector == nullptr || injector->plan().empty()) return nullptr;
  return injector;
}

int device_index(Placement device) {
  return device == Placement::kGpu ? 0 : 1;
}

// Flight-recorder sites. Each records POD arguments; the formatter below
// it builds the detail only when the recorder is read.

using telemetry::append;
using Args = telemetry::EventArgs;

const char* case_name(std::int64_t case_id) {
  return workload::case_spec(static_cast<workload::CaseId>(case_id)).name;
}

const char* placement_of(std::int64_t device) {
  return placement_name(static_cast<Placement>(device));
}

const char* breaker_state_of(std::int64_t state) {
  return fault::breaker_state_name(static_cast<fault::BreakerState>(state));
}

/// "node=i " for a cluster node (argument k, -1 standalone), so a fleet's
/// post-mortem names the node; a standalone service's details carry none.
void node_prefix(std::string& out, const Args& a, std::size_t k) {
  if (a.i(k) >= 0) append(out, "node=", a.i(k), " ");
}

/// (stolen jobs)
constexpr telemetry::EventType kStealEvent{
    "serve", "steal", [](std::string& out, const Args& a) {
      append(out, a.i(0), " queued job(s) stolen");
    }};
/// (node, queued jobs lost)
constexpr telemetry::EventType kCrashEvent{
    "serve", "crash", [](std::string& out, const Args& a) {
      node_prefix(out, a, 0);
      append(out, "node process died, ", a.i(1), " queued job(s) lost");
    }};
/// (node)
constexpr telemetry::EventType kRestartEvent{
    "serve", "restart", [](std::string& out, const Args& a) {
      node_prefix(out, a, 0);
      out += "node process restarted (cold queue)";
    }};
/// (case, job id)
constexpr telemetry::EventType kRejectionEvent{
    "serve", "rejection", [](std::string& out, const Args& a) {
      append(out, case_name(a.i(0)), " job ", a.i(1));
    }};
/// (case, job id, unified)
constexpr telemetry::EventType kAdmissionEvent{
    "serve", "admission", [](std::string& out, const Args& a) {
      append(out, case_name(a.i(0)), " job ", a.i(1),
             a.i(2) != 0 ? " unified" : "");
    }};
/// (jobs, GPU breaker state)
constexpr telemetry::EventType kFallbackEvent{
    "serve", "fallback", [](std::string& out, const Args& a) {
      append(out, a.i(0), " job(s) to cpu, gpu breaker ",
             breaker_state_of(a.i(1)));
    }};
/// (case, jobs, device, unified, failed)
constexpr telemetry::EventType kLaunchEvent{
    "serve", "launch", [](std::string& out, const Args& a) {
      append(out, case_name(a.i(0)), " x", a.i(1), " @", placement_of(a.i(2)),
             a.i(3) != 0 ? " unified" : "", a.i(4) != 0 ? " FAIL" : "");
    }};
/// (job id, next attempt, backoff in us)
constexpr telemetry::EventType kRetryEvent{
    "serve", "retry", [](std::string& out, const Args& a) {
      append(out, "job ", a.i(0), " attempt ", a.i(1), " in ", a.i(2), "us");
    }};
/// (job id, static reason)
constexpr telemetry::EventType kShedEvent{
    "serve", "shed", [](std::string& out, const Args& a) {
      append(out, "job ", a.i(0), ": ", a.s(1));
    }};
/// (node, device, from, to)
constexpr telemetry::EventType kBreakerEvent{
    "serve", "breaker", [](std::string& out, const Args& a) {
      node_prefix(out, a, 0);
      append(out, placement_of(a.i(1)), " ", breaker_state_of(a.i(2)), " -> ",
             breaker_state_of(a.i(3)));
    }};

/// Writes `"key":{...}`, the stats as one JSON member, in the fixed
/// format of every report.
void write_latency_json(Writer& w, const char* key,
                        const LatencyStats& stats) {
  w << "\"" << key << "\":{\"count\":" << stats.count
    << ",\"mean_ms\":" << Fixed{stats.mean_ms, 6}
    << ",\"p50_ms\":" << Fixed{stats.pct.p50, 6}
    << ",\"p95_ms\":" << Fixed{stats.pct.p95, 6}
    << ",\"p99_ms\":" << Fixed{stats.pct.p99, 6}
    << ",\"p999_ms\":" << Fixed{stats.pct.p999, 6}
    << ",\"max_ms\":" << Fixed{stats.max_ms, 6} << "}";
}

/// An order statistic being selected: the value at `rank` lies in
/// [lo, lo + width), above `below` values.
struct Wanted {
  std::size_t rank;
  SimTime lo;
  std::uint64_t width;
  std::size_t below;
};

/// A counting pass's window: the [lo, lo + width) that wanted[begin, end)
/// share, whose values count at counts[first + (offset from lo >> shift)].
struct Window {
  std::size_t begin;
  std::size_t end;
  int shift;
  std::size_t first;
};

/// The shift that counts a window `width` picoseconds wide into at most
/// 2^16 buckets.
int bucket_shift(std::uint64_t width) {
  return std::max(0, static_cast<int>(std::bit_width(width - 1)) - 16);
}

/// The distribution of span(times) over the served jobs, in milliseconds,
/// read from the log directly. The mean sums to_millis in log order. The
/// max and the ranks p50-p999 interpolate between are order statistics,
/// which to_millis, being monotone, maps from the integer ones, so those
/// are selected on picoseconds: each pass over the log counts the values
/// inside every window that holds a wanted rank into at most 2^16 buckets,
/// and each window narrows to the bucket holding its ranks until it is one
/// picosecond wide.
template <typename Span>
LatencyStats span_stats(const std::vector<JobTimes>& served, Span span) {
  LatencyStats stats;
  const std::size_t n = served.size();
  if (n == 0) return stats;
  double sum = 0.0;
  SimTime min = span(served[0]);
  SimTime max = min;
  for (const JobTimes& times : served) {
    const SimTime v = span(times);
    sum += to_millis(v);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  // The distinct ranks the percentiles read, ascending.
  std::vector<std::size_t> ranks;
  for (const double q : stats::kPercentileQs) {
    const stats::Rank rank = stats::rank_of(n, q);
    ranks.insert(ranks.end(), {rank.lo, rank.hi});
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const auto width = static_cast<std::uint64_t>(max - min) + 1;
  std::vector<Wanted> wanted;
  for (const std::size_t rank : ranks) wanted.push_back({rank, min, width, 0});
  // Below the top level every window lies inside one top-level bucket, so
  // a value finds the windows to test through its own: route[bucket] is
  // the index range of the windows there.
  const int top_shift = bucket_shift(width);
  const auto top = [min, top_shift](SimTime v) {
    return static_cast<std::size_t>((v - min) >> top_shift);
  };
  std::vector<std::array<std::uint8_t, 2>> route(std::size_t{1} << 16);
  std::vector<Window> windows;
  std::vector<std::size_t> counts;
  for (bool top_level = true;; top_level = false) {
    windows.clear();
    std::size_t buckets = 0;
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      const Wanted& w = wanted[i];
      if (w.width == 1) continue;
      if (!windows.empty() && wanted[windows.back().begin].lo == w.lo) {
        windows.back().end = i + 1;
        continue;
      }
      const int shift = bucket_shift(w.width);
      windows.push_back({i, i + 1, shift, buckets});
      buckets += static_cast<std::size_t>((w.width - 1) >> shift) + 1;
    }
    if (windows.empty()) break;
    counts.assign(buckets, 0);
    if (top_level) {
      // One window, the whole range: every value counts.
      for (const JobTimes& times : served) ++counts[top(span(times))];
    } else {
      for (std::size_t j = 0; j < windows.size(); ++j) {
        auto& r = route[top(wanted[windows[j].begin].lo)];
        r = {r[0] == r[1] ? static_cast<std::uint8_t>(j) : r[0],
             static_cast<std::uint8_t>(j + 1)};
      }
      for (const JobTimes& times : served) {
        const SimTime v = span(times);
        const auto [begin, end] = route[top(v)];
        for (std::size_t j = begin; j < end; ++j) {
          const Window& x = windows[j];
          const auto offset = static_cast<std::uint64_t>(v - wanted[x.begin].lo);
          if (offset < wanted[x.begin].width) {
            ++counts[x.first + (offset >> x.shift)];
          }
        }
      }
      for (const Window& x : windows) route[top(wanted[x.begin].lo)] = {0, 0};
    }
    for (const Window& x : windows) {
      // The window's ranks ascend, so one walk over its buckets finds them.
      const Wanted shared = wanted[x.begin];
      std::size_t bucket = x.first;
      std::size_t below = shared.below;
      for (std::size_t i = x.begin; i < x.end; ++i) {
        Wanted& w = wanted[i];
        while (below + counts[bucket] <= w.rank) below += counts[bucket++];
        const std::uint64_t offset = std::uint64_t{bucket - x.first}
                                     << x.shift;
        w.lo = shared.lo + static_cast<SimTime>(offset);
        w.width = std::min(std::uint64_t{1} << x.shift, shared.width - offset);
        w.below = below;
      }
    }
  }
  const auto at = [&wanted](std::size_t rank) {
    return to_millis(std::find_if(wanted.begin(), wanted.end(),
                                  [rank](const Wanted& w) {
                                    return w.rank == rank;
                                  })->lo);
  };
  stats.count = n;
  stats.mean_ms = sum / static_cast<double>(n);
  stats.max_ms = to_millis(max);
  double* const pct[] = {&stats.pct.p50, &stats.pct.p95, &stats.pct.p99,
                         &stats.pct.p999};
  for (std::size_t i = 0; i < std::size(pct); ++i) {
    const stats::Rank rank = stats::rank_of(n, stats::kPercentileQs[i]);
    *pct[i] = rank.between(at(rank.lo), at(rank.hi));
  }
  return stats;
}

}  // namespace

void OutcomeStats::fill(const Outcomes& outcomes, LatencyStats* queue_wait) {
  const std::vector<JobTimes>& served = outcomes.served;
  bytes_served = outcomes.bytes_served;
  // Entries are in completion order, so the last one completed last.
  if (!served.empty() && served.back().completion > outcomes.origin) {
    makespan = served.back().completion - outcomes.origin;
    const double seconds = to_seconds(makespan);
    throughput_jobs_per_s = static_cast<double>(served.size()) / seconds;
    throughput_gbps = static_cast<double>(bytes_served) / 1e9 / seconds;
  }
  latency = span_stats(served, [](const JobTimes& t) { return t.latency(); });
  if (queue_wait != nullptr) {
    *queue_wait =
        span_stats(served, [](const JobTimes& t) { return t.queue_wait(); });
  }
}

void OutcomeStats::write_json(Writer& w) const {
  w << "\"makespan_ms\":" << Fixed{to_millis(makespan), 6}
    << ",\"bytes_served\":" << bytes_served
    << ",\"throughput_jobs_per_s\":" << Fixed{throughput_jobs_per_s, 6}
    << ",\"throughput_gbps\":" << Fixed{throughput_gbps, 6} << ",";
  write_latency_json(w, "latency", latency);
}

void ServiceReport::write_json(std::ostream& os) const {
  Writer w(os);
  write_json(w);
}

void ServiceReport::write_json(Writer& w) const {
  w << "{\"policy\":\"" << policy << "\",\"submitted\":" << submitted
    << ",\"served\":" << served << ",\"rejected\":" << rejected
    << ",\"deadline_missed\":" << deadline_missed
    << ",\"launches\":" << launches
    << ",\"multi_job_launches\":" << multi_job_launches
    << ",\"batched_jobs\":" << batched_jobs << ",\"gpu_jobs\":" << gpu_jobs
    << ",\"cpu_jobs\":" << cpu_jobs << ",\"um_jobs\":" << um_jobs
    << ",\"queue_high_watermark\":" << queue_high_watermark << ",";
  OutcomeStats::write_json(w);
  w << ",";
  write_latency_json(w, "queue_wait", queue_wait);
  w << ",\"tuner_hits\":" << tuner_hits << ",\"tuner_misses\":" << tuner_misses;
  // Fault keys only appear on fault-aware runs; an empty (or absent) plan
  // keeps the report byte-identical to a fault-unaware build.
  if (fault_aware) {
    w << ",\"retries\":" << retries << ",\"gpu_failures\":" << gpu_failures
      << ",\"breaker_opens\":" << breaker_opens << ",\"shed\":" << shed
      << ",\"fallback_cpu_jobs\":" << fallback_cpu_jobs;
  }
  w << "}";
}

ReductionService::ReductionService(std::unique_ptr<SchedulerPolicy> policy,
                                   ServiceModel& model,
                                   ServiceOptions options,
                                   trace::Tracer* tracer)
    : policy_(std::move(policy)),
      model_(model),
      options_(options),
      tracer_(tracer),
      owned_sim_(options.external_sim == nullptr
                     ? std::make_unique<sim::Simulator>(
                           options.telemetry.metrics)
                     : nullptr),
      sim_(options.external_sim != nullptr ? *options.external_sim
                                           : *owned_sim_),
      queue_(options.queue_depth),
      injector_(effective_injector(options.injector)),
      retry_rng_(kJitterSeed) {
  GHS_REQUIRE(policy_ != nullptr, "null policy");
  if (options_.profile != nullptr) {
    // Announce the devices up front so the profiler samples them as idle
    // before their first launch.
    options_.profile->register_device(cost_node(), profile::Device::kGpu);
    if (options_.use_cpu) {
      options_.profile->register_device(cost_node(), profile::Device::kCpu);
    }
  }
  const telemetry::Sink& sink = options_.telemetry;
  flight_ = sink.flight;
  if (sink.metrics != nullptr) {
    telemetry::Registry& r = *sink.metrics;
    // A cluster node's instruments carry its node="i" label; a standalone
    // service has none, so its instrument identities stay exactly as
    // before.
    const telemetry::Labels inst = node_labels(options_.node);
    const auto with_inst = [&inst](telemetry::Labels labels) {
      labels.insert(labels.end(), inst.begin(), inst.end());
      return labels;
    };
    m_launches_[0] = &r.counter("ghs_serve_launches_total",
                                with_inst({{"device", "gpu"}}),
                                "Device launches performed by the pool");
    m_launches_[1] = &r.counter("ghs_serve_launches_total",
                                with_inst({{"device", "cpu"}}),
                                "Device launches performed by the pool");
    m_batched_jobs_ =
        &r.counter("ghs_serve_batched_jobs_total", with_inst({}),
                   "Jobs that rode a multi-job launch");
    if (sink.timeline) {
      // Timeline-only: busy time per device, credited at launch, which the
      // ghs::timeseries scraper turns into utilization-over-time. Gated on
      // Sink::timeline so snapshot-only runs keep their instrument set.
      m_busy_ps_[0] = &r.counter(
          "ghs_serve_device_busy_ps_total", with_inst({{"device", "gpu"}}),
          "Simulated picoseconds of device service, credited at launch");
      m_busy_ps_[1] = &r.counter(
          "ghs_serve_device_busy_ps_total", with_inst({{"device", "cpu"}}),
          "Simulated picoseconds of device service, credited at launch");
    }
    m_submitted_ = &r.counter("ghs_serve_jobs_submitted_total", with_inst({}),
                              "Jobs whose arrival reached the service");
    m_admitted_ = &r.counter("ghs_serve_jobs_admitted_total", with_inst({}),
                             "Jobs accepted into the admission queue");
    m_rejected_ = &r.counter("ghs_serve_jobs_rejected_total", with_inst({}),
                             "Jobs shed by admission-queue backpressure");
    m_completed_ = &r.counter("ghs_serve_jobs_completed_total", with_inst({}),
                              "Jobs served to completion");
    m_queue_depth_ = &r.gauge("ghs_serve_queue_depth", with_inst({}),
                              "Jobs currently waiting in the admission queue");
    const telemetry::Labels policy_label =
        with_inst({{"policy", policy_->name()}});
    m_latency_ms_ = &r.histogram(
        "ghs_serve_latency_ms", telemetry::default_latency_buckets_ms(),
        policy_label, "Arrival-to-completion latency in milliseconds");
    m_queue_wait_ms_ = &r.histogram(
        "ghs_serve_queue_wait_ms", telemetry::default_latency_buckets_ms(),
        policy_label, "Arrival-to-dispatch wait in milliseconds");
    if (injector_ != nullptr) {
      m_retries_ = &r.counter("ghs_serve_retry_attempts_total", with_inst({}),
                              "Failed-launch retries scheduled");
      m_shed_ = &r.counter(
          "ghs_serve_shed_jobs_total", with_inst({}),
          "Jobs dropped by the retry machinery (budget, deadline, requeue)");
      m_fallback_ = &r.counter(
          "ghs_serve_fallback_cpu_jobs_total", with_inst({}),
          "Jobs placed on the Grace CPU while the GPU breaker was open");
      m_breaker_opens_[0] = &r.counter("ghs_serve_breaker_opens_total",
                                       with_inst({{"device", "gpu"}}),
                                       "Circuit-breaker trips to open");
      m_breaker_opens_[1] = &r.counter("ghs_serve_breaker_opens_total",
                                       with_inst({{"device", "cpu"}}),
                                       "Circuit-breaker trips to open");
      m_breaker_state_[0] = &r.gauge(
          "ghs_serve_breaker_state", with_inst({{"device", "gpu"}}),
          "Circuit-breaker state (0 closed, 1 open, 2 half-open)");
      m_breaker_state_[1] = &r.gauge(
          "ghs_serve_breaker_state", with_inst({{"device", "cpu"}}),
          "Circuit-breaker state (0 closed, 1 open, 2 half-open)");
    }
  }
  if (injector_ != nullptr) {
    gpu_breaker_.set_on_transition(
        [this](fault::BreakerState from, fault::BreakerState to, SimTime at) {
          on_breaker_transition(Placement::kGpu, from, to, at);
        });
    cpu_breaker_.set_on_transition(
        [this](fault::BreakerState from, fault::BreakerState to, SimTime at) {
          on_breaker_transition(Placement::kCpu, from, to, at);
        });
    // Poke the dispatcher at every plan-window boundary so a device coming
    // back up is noticed even when no arrival or completion lands nearby.
    for (const SimTime at : injector_->transitions()) {
      sim_.schedule_at(at, [this]() { dispatch_all(); });
    }
  }
}

void ReductionService::submit(const Job& job) {
  GHS_REQUIRE(job.arrival >= sim_.now(),
              "job " << job.id << " arrives in the past");
  sim_.schedule_at(job.arrival, [this, job]() { on_arrival(job); });
}

void ReductionService::submit_all(std::vector<Job> jobs) {
  outcomes_.served.reserve(outcomes_.served.size() + jobs.size());
  chain_arrivals(sim_, std::move(jobs),
                 [this](const Job& job) { on_arrival(job); });
}

void ReductionService::set_on_complete(
    std::function<void(const JobRecord&)> hook) {
  on_complete_ = std::move(hook);
}

void ReductionService::set_on_reject(
    std::function<void(const Job&, SimTime)> hook) {
  on_reject_ = std::move(hook);
}

void ReductionService::set_on_shed(
    std::function<void(const Job&, SimTime)> hook) {
  on_shed_ = std::move(hook);
}

void ReductionService::set_on_breaker_transition(
    std::function<void(Placement, fault::BreakerState, fault::BreakerState,
                       SimTime)>
        hook) {
  on_breaker_ = std::move(hook);
}

std::vector<Job> ReductionService::steal_queued(std::size_t max_jobs) {
  std::vector<Job> stolen;
  const std::size_t take = std::min(max_jobs, queue_.size());
  stolen.reserve(take);
  // Oldest first: position 0 is always the longest-waiting job, and take()
  // shifts the rest down, so repeatedly draining the front preserves
  // arrival order among the stolen jobs.
  for (std::size_t i = 0; i < take; ++i) stolen.push_back(queue_.take(0));
  if (!stolen.empty()) {
    update_queue_gauge();
    if (flight_ != nullptr) {
      flight_->record(sim_.now(), kStealEvent, stolen.size());
    }
  }
  return stolen;
}

void ReductionService::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  // The queued jobs die with the process; their write-ahead journal
  // entries (owned by the composing cluster) are the only copies left.
  std::size_t dropped = 0;
  while (!queue_.empty()) {
    queue_.take(queue_.size() - 1);
    ++dropped;
  }
  update_queue_gauge();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), kCrashEvent, options_.node, dropped);
  }
}

void ReductionService::restore() {
  if (alive_) return;
  alive_ = true;
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), kRestartEvent, options_.node);
  }
  dispatch_all();
}

void ReductionService::run() { sim_.run(); }

void ReductionService::on_arrival(Job job) {
  ++submitted_;
  if (m_submitted_ != nullptr) m_submitted_->inc();
  // With a tracer attached every job opens a trace at admission: the root
  // context rides the Job through queue, placement, retries, and the
  // launch, so each child span can name its parent deterministically.
  if (tracer_ != nullptr && !job.ctx.valid()) {
    job.ctx = trace::Context{trace::derive_trace_id(job.id),
                             tracer_->new_span_id(), 0};
  }
  job.enqueued = sim_.now();
  // A dead node refuses every arrival through the normal rejection path:
  // the composing cluster sees the bounce via on_reject and re-routes,
  // which is exactly the pre-detection cost a crashed node imposes.
  if (!alive_ || !queue_.push(job)) {
    outcomes_.rejected.push_back(sim_.now());
    if (m_rejected_ != nullptr) m_rejected_->inc();
    if (flight_ != nullptr) {
      flight_->record(sim_.now(), kRejectionEvent, job.case_id, job.id);
    }
    // The reject marker and the root span.
    if (tracer_ != nullptr && tracer_->keep(job.ctx, 2)) {
      tracer_->mark(trace::Track::kServer,
                    std::string("reject ") +
                        workload::case_spec(job.case_id).name,
                    sim_.now());
      record_root_span(job, sim_.now(), "rejected", "");
    }
    if (on_reject_) on_reject_(job, sim_.now());
    return;
  }
  if (m_admitted_ != nullptr) m_admitted_->inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), kAdmissionEvent, job.case_id, job.id,
                    job.unified);
  }
  if (tracer_ != nullptr && tracer_->keep(job.ctx)) {
    tracer_->mark(trace::Track::kJobs, "serve.admit", sim_.now(),
                  job.ctx.child(tracer_->new_span_id()));
  }
  update_queue_gauge();
  dispatch_all();
}

void ReductionService::update_queue_gauge() {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(queue_.size()));
  }
}

bool ReductionService::busy(Placement device) const {
  return busy_[device_index(device)];
}

void ReductionService::dispatch_all() {
  dispatch(Placement::kGpu);
  if (options_.use_cpu) dispatch(Placement::kCpu);
}

void ReductionService::dispatch(Placement device) {
  if (!alive_) return;
  while (!busy(device) && !queue_.empty()) {
    if (injector_ != nullptr) {
      fault::CircuitBreaker& breaker = breaker_ref(device);
      if (!breaker.allow(sim_.now())) {
        // Breaker open: stop launching on this device and wake the
        // dispatcher when the half-open probe becomes admissible.
        schedule_breaker_wake(device, breaker.probe_at());
        return;
      }
    }
    auto selected = policy_->select(queue_, device, sim_.now());
    bool fallback = false;
    if (!selected && device == Placement::kCpu && injector_ != nullptr &&
        gpu_breaker_.state() != fault::BreakerState::kClosed) {
      // Degraded placement: the GPU breaker is open (or probing) and the
      // policy would leave the CPU idle. Serve the oldest non-unified job
      // on the Grace CPU instead of letting the queue stall; unified jobs
      // stay GPU-bound and wait for the probe.
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (!queue_.at(i).unified) {
          selected = i;
          fallback = true;
          break;
        }
      }
    }
    if (!selected) return;
    std::vector<Job>& batch = batches_[device_index(device)];
    batch.clear();
    batch.push_back(queue_.take(*selected));
    const auto& opts = options_.batching;
    if (opts.enable && batch.front().elements <= opts.small_elements) {
      // Coalesce queued small same-case jobs (arrival order) into the
      // launch until a job/element ceiling is hit.
      std::int64_t total = batch.front().elements;
      std::size_t i = 0;
      while (i < queue_.size() &&
             batch.size() < static_cast<std::size_t>(opts.max_jobs)) {
        const Job& candidate = queue_.at(i);
        if (candidate.case_id == batch.front().case_id &&
            candidate.unified == batch.front().unified &&
            candidate.elements <= opts.small_elements &&
            total + candidate.elements <= opts.max_batch_elements) {
          total += candidate.elements;
          batch.push_back(queue_.take(i));
        } else {
          ++i;
        }
      }
    }
    if (fallback) {
      fallback_cpu_jobs_ += static_cast<std::int64_t>(batch.size());
      if (m_fallback_ != nullptr) {
        m_fallback_->inc(static_cast<std::int64_t>(batch.size()));
      }
      if (flight_ != nullptr) {
        flight_->record(sim_.now(), kFallbackEvent, batch.size(),
                        gpu_breaker_.state());
      }
    }
    if (tracer_ != nullptr) {
      // One serve.queue child per job in the batch: from its last enqueue
      // (arrival, or the requeue instant of a retry) to this dispatch.
      for (const Job& queued : batch) {
        if (!queued.ctx.valid() || !tracer_->keep(queued.ctx)) continue;
        tracer_->record(
            trace::Track::kJobs, "serve.queue", queued.enqueued, sim_.now(),
            "attempt=" + std::to_string(queued.attempt) +
                (fallback ? " fallback=cpu" : ""),
            queued.ctx.child(tracer_->new_span_id()));
      }
    }
    const core::ReduceTuning tuning = device == Placement::kGpu
                                          ? policy_->geometry(batch.front())
                                          : core::ReduceTuning{};
    update_queue_gauge();
    launch(device, tuning);
  }
}

void ReductionService::launch(Placement device,
                              const core::ReduceTuning& tuning) {
  // dispatch() only launches on an idle device, and only batches jobs of
  // one case and one memory mode.
  const std::vector<Job>& jobs = batches_[device_index(device)];
  const auto case_id = jobs.front().case_id;
  const bool unified = jobs.front().unified;
  std::int64_t total_elements = 0;
  for (const auto& job : jobs) total_elements += job.elements;
  GHS_REQUIRE(!unified || device == Placement::kGpu,
              "unified jobs are GPU-only");
  const bool gpu = device == Placement::kGpu;
  const int idx = device_index(device);

  SimTime service =
      gpu ? (unified
                 ? model_.unified_gpu_service(case_id, total_elements, tuning)
                 : model_.gpu_service(case_id, total_elements, tuning))
          : model_.cpu_service(case_id, total_elements);
  const SimTime begin = sim_.now();

  // Faults are decided at launch time, so the outcome is a pure function
  // of (plan, seed, launch sequence).
  const bool failed =
      injector_ != nullptr &&
      injector_->judge_launch(gpu ? fault::Target::kGpu : fault::Target::kCpu,
                              begin, unified, service);
  const SimTime end = begin + service;
  const auto batch = static_cast<std::int64_t>(jobs.size());

  const std::int64_t launch_id = launches_++;
  if (m_launches_[idx] != nullptr) m_launches_[idx]->inc();
  if (batch > 1) {
    ++multi_job_launches_;
    batched_jobs_ += batch;
    if (m_batched_jobs_ != nullptr) m_batched_jobs_->inc(batch);
  }
  if (flight_ != nullptr) {
    flight_->record(begin, kLaunchEvent, case_id, batch, device, unified,
                    failed);
  }
  busy_[idx] = true;
  busy_ps_[idx] += service;
  if (m_busy_ps_[idx] != nullptr) m_busy_ps_[idx]->inc(service);
  if (failed) {
    if (gpu) ++gpu_failures_;
  } else {
    device_jobs_[idx] += batch;
  }

  // Kernel start within the launch: unified launches migrate their managed
  // buffers first. The share goes through the model's memo cache (tuner
  // hit/miss counters), so it is computed only when a consumer — the
  // tracer's device spans or the profile recorder — is attached, keeping
  // consumer-free runs byte-identical. It is computed for sampled-out
  // launches too: whether there would be a um.migrate span decides how
  // many entries the sampler counts, and the sample rate then changes no
  // counter but the sampler's (docs/PERFORMANCE.md §4).
  SimTime kernel_begin = begin;
  if (!failed && unified &&
      (tracer_ != nullptr || options_.profile != nullptr)) {
    const SimTime share = std::min(
        model_.unified_migration_share(case_id, total_elements, tuning),
        service);
    kernel_begin = begin + share;
  }
  if (tracer_ != nullptr) {
    // Spans each job's execute subtree holds: serve.execute and, on
    // success, its device children (the page-migration share first for
    // unified launches, then the kernel).
    const std::int64_t job_entries =
        failed ? 1 : (kernel_begin > begin ? 3 : 2);
    // Sampling: the whole launch block (including the batch-level kServer
    // span) is skipped when no job in the batch survives the sampler, so a
    // heavily sampled million-job run builds span strings for O(sampled)
    // launches. Launches whose jobs carry no context (tracer attached
    // outside the serving path) are always traced.
    std::int64_t traced_jobs = 0;
    const trace::Context* dropped = nullptr;
    bool any_kept = false;
    for (const auto& job : jobs) {
      if (!job.ctx.valid()) continue;
      ++traced_jobs;
      if (tracer_->sampled(job.ctx.trace_id)) {
        any_kept = true;
      } else {
        dropped = &job.ctx;
      }
    }
    if (dropped != nullptr && !any_kept) {
      // The launch span and every job's subtree.
      tracer_->keep(*dropped, 1 + traced_jobs * job_entries);
    } else {
      const auto& spec = workload::case_spec(case_id);
      tracer_->record(trace::Track::kServer,
                      std::string(spec.name) + " x" + std::to_string(batch) +
                          " @" + placement_name(device) +
                          (failed ? " FAIL" : ""),
                      begin, end,
                      std::to_string(total_elements) + " elements, launch " +
                          std::to_string(launch_id));
      // Causal layer: one serve.execute child per job under its root span,
      // and — on success — the device-level grandchildren, so a job's
      // trace tree reaches all the way into the simulated hardware.
      for (const auto& job : jobs) {
        if (!job.ctx.valid() || !tracer_->keep(job.ctx, job_entries)) {
          continue;
        }
        const trace::Context exec_ctx =
            job.ctx.child(tracer_->new_span_id());
        tracer_->record(trace::Track::kJobs, "serve.execute", begin, end,
                        std::string("device=") + placement_name(device) +
                            " retry=" + std::to_string(job.attempt) +
                            " batch=" + std::to_string(batch) +
                            " launch=" + std::to_string(launch_id) +
                            (failed ? " failed" : ""),
                        exec_ctx);
        if (failed) continue;
        const std::string launch_detail =
            "launch=" + std::to_string(launch_id);
        if (!gpu) {
          tracer_->record(trace::Track::kCpu, "cpu.reduce", begin, end,
                          launch_detail,
                          exec_ctx.child(tracer_->new_span_id()));
          continue;
        }
        if (kernel_begin > begin) {
          tracer_->record(trace::Track::kUmMigration, "um.migrate", begin,
                          kernel_begin, launch_detail,
                          exec_ctx.child(tracer_->new_span_id()));
        }
        tracer_->record(trace::Track::kGpu, "gpu.kernel", kernel_begin, end,
                        launch_detail,
                        exec_ctx.child(tracer_->new_span_id()));
      }
    }
  }

  if (!failed && unified) {
    for (const auto& job : jobs) unified_bytes_ += job.bytes();
  }
  if (options_.profile != nullptr) {
    profile::LaunchSample sample;
    sample.node = cost_node();
    sample.device = gpu ? profile::Device::kGpu : profile::Device::kCpu;
    sample.begin = begin;
    sample.kernel_begin = kernel_begin;
    sample.end = end;
    sample.unified = unified;
    sample.failed = failed;
    launch_costs_.clear();
    for (const auto& job : jobs) {
      launch_costs_.push_back({job.tenant,
                               static_cast<std::uint8_t>(job.case_id),
                               job.elements, job.bytes(), job.enqueued});
    }
    options_.profile->on_launch(sample, launch_costs_);
  }

  // The completion belongs to this incarnation: if the node crashes before
  // the launch lands, the stale outcome is discarded (the jobs are
  // replayed elsewhere by the cluster's journal). dispatch_all still runs
  // so a restarted node reclaims the device the moment the stale
  // completion frees it.
  sim_.schedule_at(end, [this, device, failed, launch_id, begin,
                         epoch = epoch_]() {
    busy_[device_index(device)] = false;
    if (epoch == epoch_) complete_launch(device, failed, launch_id, begin);
    dispatch_all();
  });
}

void ReductionService::complete_launch(Placement device, bool failed,
                                       std::int64_t launch_id, SimTime begin) {
  const std::vector<Job>& jobs = batches_[device_index(device)];
  if (failed) {
    if (injector_ != nullptr) breaker_ref(device).record_failure(sim_.now());
    for (const auto& job : jobs) handle_failed_job(job);
    return;
  }
  if (injector_ != nullptr) breaker_ref(device).record_success(sim_.now());
  const SimTime now = sim_.now();
  for (const auto& job : jobs) {
    const JobTimes times{job.arrival, begin, now};
    outcomes_.served.push_back(times);
    outcomes_.bytes_served += job.bytes();
    outcomes_.origin = std::min(outcomes_.origin, job.arrival);
    if (job.unified) ++um_jobs_;
    if (job.deadline > 0 && now > job.deadline) ++deadline_missed_;
    if (m_completed_ != nullptr) m_completed_->inc();
    if (m_latency_ms_ != nullptr) {
      // A traced job's trace id rides along as the bucket's exemplar, so a
      // fat latency bucket names the span tree that filled it. An untraced
      // job, or one whose trace the sampler drops, observes with id 0,
      // which records no exemplar.
      const std::uint64_t exemplar =
          tracer_ != nullptr && tracer_->sampled(job.ctx.trace_id)
              ? job.ctx.trace_id
              : 0;
      m_latency_ms_->observe_exemplar(to_millis(times.latency()), exemplar);
      m_queue_wait_ms_->observe_exemplar(to_millis(times.queue_wait()),
                                         exemplar);
    }
    if (tracer_ != nullptr) {
      record_root_span(job, now, "served", placement_name(device));
    }
    if (on_complete_) on_complete_({job, device, launch_id, begin, now});
  }
}

void ReductionService::record_root_span(const Job& job, SimTime end,
                                        const char* outcome,
                                        const char* device) {
  // keep() short-circuits the detail-string build for sampled-out traces;
  // this is the O(sampled) guarantee on the per-job span path.
  if (tracer_ == nullptr || !job.ctx.valid() || !tracer_->keep(job.ctx)) {
    return;
  }
  std::string detail = std::string("case=") +
                       workload::case_spec(job.case_id).name +
                       " elements=" + std::to_string(job.elements) +
                       " outcome=" + outcome +
                       " retries=" + std::to_string(job.attempt);
  if (device[0] != '\0') detail += std::string(" device=") + device;
  if (job.unified) detail += " unified";
  tracer_->record(trace::Track::kJobs,
                  "serve.job #" + std::to_string(job.id), job.arrival, end,
                  detail, job.ctx);
}

void ReductionService::handle_failed_job(const Job& job) {
  const SimTime now = sim_.now();
  if (job.attempt + 1 >= kMaxAttempts) {
    shed_job(job, "retry budget exhausted");
    return;
  }
  // Capped exponential backoff with deterministic jitter: the draw happens
  // on every retry decision so the jitter stream is a pure function of the
  // failure sequence.
  SimTime backoff = kBackoffBase;
  for (int i = 0; i < job.attempt && backoff < kBackoffCap; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kBackoffCap);
  const SimTime jitter = static_cast<SimTime>(
      std::llround(retry_rng_.next_double() * kBackoffJitter *
                   static_cast<double>(backoff)));
  const SimTime retry_at = now + backoff + jitter;
  // Deadline-aware retry budget: if the retry cannot even start before the
  // job's deadline, shed now instead of burning a launch we know is late.
  if (job.deadline > 0 && retry_at >= job.deadline) {
    shed_job(job, "deadline unreachable");
    return;
  }
  ++retries_;
  if (m_retries_ != nullptr) m_retries_->inc();
  if (options_.profile != nullptr) {
    options_.profile->on_retry_backoff(
        cost_node(),
        {job.tenant, static_cast<std::uint8_t>(job.case_id), job.elements,
         job.bytes(), job.enqueued},
        backoff + jitter);
  }
  if (flight_ != nullptr) {
    flight_->record(now, kRetryEvent, job.id, job.attempt + 1,
                    (backoff + jitter) / kMicrosecond);
  }
  Job again = job;
  ++again.attempt;
  if (tracer_ != nullptr && again.ctx.valid() && tracer_->keep(again.ctx)) {
    tracer_->record(trace::Track::kJobs, "serve.retry_backoff", now,
                    retry_at, "retry=" + std::to_string(again.attempt),
                    again.ctx.child(tracer_->new_span_id()));
  }
  again.enqueued = retry_at;
  sim_.schedule_at(retry_at, [this, again, epoch = epoch_]() {
    // A crash between the failure and the requeue voids the retry: the
    // job's journal entry is replayed on a peer instead.
    if (epoch != epoch_) return;
    if (!queue_.push(again)) {
      shed_job(again, "requeue refused (queue full)");
      return;
    }
    update_queue_gauge();
    dispatch_all();
  });
}

void ReductionService::shed_job(const Job& job, const char* reason) {
  outcomes_.shed.push_back(sim_.now());
  if (m_shed_ != nullptr) m_shed_->inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), kShedEvent, job.id, reason);
  }
  // The shed marker and the root span.
  if (tracer_ != nullptr && tracer_->keep(job.ctx, 2)) {
    tracer_->mark(trace::Track::kServer,
                  "shed " + std::to_string(job.id), sim_.now());
    record_root_span(job, sim_.now(), "shed", "");
  }
  if (on_shed_) on_shed_(job, sim_.now());
}

void ReductionService::schedule_breaker_wake(Placement device, SimTime at) {
  SimTime& pending = device == Placement::kGpu ? gpu_wake_ : cpu_wake_;
  if (pending == at) return;  // wake already queued for this probe time
  pending = at;
  sim_.schedule_at(at, [this]() { dispatch_all(); });
}

void ReductionService::on_breaker_transition(Placement device,
                                             fault::BreakerState from,
                                             fault::BreakerState to,
                                             SimTime at) {
  const int idx = device_index(device);
  if (to == fault::BreakerState::kOpen && m_breaker_opens_[idx] != nullptr) {
    m_breaker_opens_[idx]->inc();
  }
  if (m_breaker_state_[idx] != nullptr) {
    m_breaker_state_[idx]->set(static_cast<double>(to));
  }
  if (flight_ != nullptr) {
    flight_->record(at, kBreakerEvent, options_.node, device, from, to);
  }
  if (tracer_ != nullptr) {
    tracer_->mark(trace::Track::kServer,
                  std::string("serve.breaker ") + placement_name(device) +
                      " " + fault::breaker_state_name(to),
                  at);
  }
  if (on_breaker_) on_breaker_(device, from, to, at);
}

ServiceReport ReductionService::report() const {
  ServiceReport report;
  report.policy = policy_->name();
  report.submitted = submitted_;
  report.rejected = static_cast<std::int64_t>(outcomes_.rejected.size());
  report.launches = launches_;
  report.multi_job_launches = multi_job_launches_;
  report.batched_jobs = batched_jobs_;
  report.gpu_jobs = device_jobs_[0];
  report.cpu_jobs = device_jobs_[1];
  report.queue_high_watermark = queue_.high_watermark();
  if (injector_ != nullptr) {
    report.fault_aware = true;
    report.retries = retries_;
    report.gpu_failures = gpu_failures_;
    report.breaker_opens = gpu_breaker_.opens() + cpu_breaker_.opens();
    report.shed = static_cast<std::int64_t>(outcomes_.shed.size());
    report.fallback_cpu_jobs = fallback_cpu_jobs_;
  }

  const std::vector<JobTimes>& served = outcomes_.served;
  if (served.empty()) return report;

  report.served = static_cast<std::int64_t>(served.size());
  report.um_jobs = um_jobs_;
  report.deadline_missed = deadline_missed_;
  report.fill(outcomes_, &report.queue_wait);

  if (const auto* bandwidth =
          dynamic_cast<const BandwidthAwarePolicy*>(policy_.get())) {
    report.tuner_hits = bandwidth->tuner_cache().hits;
    report.tuner_misses = bandwidth->tuner_cache().misses;
  }
  return report;
}

profile::ConservationTotals ReductionService::conservation_totals() const {
  profile::ConservationTotals totals;
  totals.gpu_busy_ps = busy_ps_[0];
  totals.cpu_busy_ps = busy_ps_[1];
  totals.um_bytes = unified_bytes_;
  return totals;
}

}  // namespace ghs::serve
