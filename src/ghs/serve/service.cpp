#include "ghs/serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

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

}  // namespace

void write_latency_json(std::ostream& os, const char* key,
                        const LatencyStats& stats) {
  os << "\"" << key << "\":{\"count\":" << stats.count
     << ",\"mean_ms\":" << format_fixed(stats.mean_ms, 6)
     << ",\"p50_ms\":" << format_fixed(stats.pct.p50, 6)
     << ",\"p95_ms\":" << format_fixed(stats.pct.p95, 6)
     << ",\"p99_ms\":" << format_fixed(stats.pct.p99, 6)
     << ",\"p999_ms\":" << format_fixed(stats.pct.p999, 6)
     << ",\"max_ms\":" << format_fixed(stats.max_ms, 6) << "}";
}

LatencyStats make_latency_stats(std::vector<double> ms) {
  LatencyStats stats;
  stats.count = ms.size();
  if (ms.empty()) return stats;
  stats.mean_ms = stats::arithmetic_mean(ms);
  stats.max_ms = *std::max_element(ms.begin(), ms.end());
  stats.pct = stats::percentiles(std::move(ms));
  return stats;
}

void ServiceReport::write_json(std::ostream& os) const {
  os << "{\"policy\":\"" << policy << "\",\"submitted\":" << submitted
     << ",\"served\":" << served << ",\"rejected\":" << rejected
     << ",\"deadline_missed\":" << deadline_missed
     << ",\"launches\":" << launches
     << ",\"multi_job_launches\":" << multi_job_launches
     << ",\"batched_jobs\":" << batched_jobs << ",\"gpu_jobs\":" << gpu_jobs
     << ",\"cpu_jobs\":" << cpu_jobs << ",\"um_jobs\":" << um_jobs
     << ",\"queue_high_watermark\":" << queue_high_watermark
     << ",\"makespan_ms\":" << format_fixed(to_millis(makespan), 6)
     << ",\"bytes_served\":" << bytes_served
     << ",\"throughput_jobs_per_s\":"
     << format_fixed(throughput_jobs_per_s, 6)
     << ",\"throughput_gbps\":" << format_fixed(throughput_gbps, 6) << ",";
  write_latency_json(os, "latency", latency);
  os << ",";
  write_latency_json(os, "queue_wait", queue_wait);
  os << ",\"tuner_hits\":" << tuner_hits
     << ",\"tuner_misses\":" << tuner_misses;
  // Fault keys only appear on fault-aware runs; an empty (or absent) plan
  // keeps the report byte-identical to a fault-unaware build.
  if (fault_aware) {
    os << ",\"retries\":" << retries << ",\"gpu_failures\":" << gpu_failures
       << ",\"breaker_opens\":" << breaker_opens << ",\"shed\":" << shed
       << ",\"fallback_cpu_jobs\":" << fallback_cpu_jobs;
  }
  os << "}";
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
                     ? std::make_unique<sim::Simulator>()
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
  if (options_.node >= 0) {
    flight_label_ = "node=" + std::to_string(options_.node) + " ";
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
    sim_.set_telemetry(&r);
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

void ReductionService::submit_all(const std::vector<Job>& jobs) {
  submit_all(std::vector<Job>(jobs));
}

void ReductionService::submit_all(std::vector<Job>&& jobs) {
  served_.reserve(served_.size() + jobs.size());
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
      flight_->record(sim_.now(), "serve", "steal",
                      std::to_string(stolen.size()) + " queued job(s) stolen");
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
    flight_->record(sim_.now(), "serve", "crash",
                    flight_label_ + "node process died, " +
                        std::to_string(dropped) + " queued job(s) lost");
  }
}

void ReductionService::restore() {
  if (alive_) return;
  alive_ = true;
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), "serve", "restart",
                    flight_label_ + "node process restarted (cold queue)");
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
    rejected_.push_back(job);
    rejected_at_.push_back(sim_.now());
    if (m_rejected_ != nullptr) m_rejected_->inc();
    if (flight_ != nullptr) {
      flight_->record(sim_.now(), "serve", "rejection",
                      std::string(workload::case_spec(job.case_id).name) +
                          " job " + std::to_string(job.id));
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
    flight_->record(sim_.now(), "serve", "admission",
                    std::string(workload::case_spec(job.case_id).name) +
                        " job " + std::to_string(job.id) +
                        (job.unified ? " unified" : ""));
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
    std::vector<Job> batch;
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
        flight_->record(sim_.now(), "serve", "fallback",
                        std::to_string(batch.size()) +
                            " job(s) to cpu, gpu breaker " +
                            fault::breaker_state_name(gpu_breaker_.state()));
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
    launch(device, std::move(batch), tuning);
  }
}

void ReductionService::launch(Placement device, std::vector<Job> jobs,
                              const core::ReduceTuning& tuning) {
  // dispatch() only launches on an idle device, and only batches jobs of
  // one case and one memory mode.
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

  // Fault interpretation, all decided at launch time so the outcome is a
  // pure function of (plan, seed, launch sequence): a launch on a down
  // device errors out fast; otherwise brown-outs stretch the service and
  // the launch fails if an outage window overlaps it or a transient kernel
  // fault fires.
  bool failed = false;
  const fault::Target target = gpu ? fault::Target::kGpu : fault::Target::kCpu;
  if (injector_ != nullptr) {
    if (injector_->device_down(target, begin)) {
      failed = true;
      service = injector_->plan().down_error_latency;
      injector_->note_outage_fault(target, begin);
    } else {
      const double scale = injector_->service_scale(target, begin);
      const double stall =
          unified ? injector_->migration_stall_scale(begin) : 1.0;
      if (scale > 1.0) injector_->note_slowed_launch(target, begin, scale);
      if (stall > 1.0) injector_->note_stalled_launch(begin, stall);
      if (scale * stall > 1.0) {
        service = static_cast<SimTime>(
            std::llround(static_cast<double>(service) * scale * stall));
      }
      if (injector_->outage_overlaps(target, begin, begin + service)) {
        failed = true;
        injector_->note_outage_fault(target, begin);
      }
      if (injector_->kernel_fails(target, begin)) failed = true;
    }
  }
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
    flight_->record(begin, "serve", "launch",
                    std::string(workload::case_spec(case_id).name) + " x" +
                        std::to_string(batch) + " @" +
                        placement_name(device) +
                        (unified ? " unified" : "") +
                        (failed ? " FAIL" : ""));
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
    std::vector<profile::JobCost> costs;
    costs.reserve(jobs.size());
    for (const auto& job : jobs) {
      costs.push_back({job.tenant, static_cast<std::uint8_t>(job.case_id),
                       job.elements, job.bytes(), job.enqueued});
    }
    options_.profile->on_launch(sample, costs);
  }

  // The completion belongs to this incarnation: if the node crashes before
  // the launch lands, the stale outcome is discarded (the jobs are
  // replayed elsewhere by the cluster's journal). dispatch_all still runs
  // so a restarted node reclaims the device the moment the stale
  // completion frees it.
  sim_.schedule_at(end, [this, device, failed, launch_id, begin,
                         epoch = epoch_, jobs = std::move(jobs)]() {
    busy_[device_index(device)] = false;
    if (epoch == epoch_) {
      complete_launch(device, failed, launch_id, begin, jobs);
    }
    dispatch_all();
  });
}

void ReductionService::complete_launch(Placement device, bool failed,
                                       std::int64_t launch_id, SimTime begin,
                                       const std::vector<Job>& jobs) {
  if (failed) {
    if (injector_ != nullptr) breaker_ref(device).record_failure(sim_.now());
    for (const auto& job : jobs) handle_failed_job(job);
    return;
  }
  if (injector_ != nullptr) breaker_ref(device).record_success(sim_.now());
  const SimTime now = sim_.now();
  for (const auto& job : jobs) {
    served_.push_back({job.arrival, begin, now});
    const JobTimes& times = served_.back();
    first_arrival_ = std::min(first_arrival_, job.arrival);
    bytes_served_ += job.bytes();
    if (job.unified) ++um_jobs_;
    if (job.deadline > 0 && now > job.deadline) ++deadline_missed_;
    if (m_completed_ != nullptr) m_completed_->inc();
    if (m_latency_ms_ != nullptr) {
      // Traced runs attach the job's trace id as an exemplar, so a fat
      // latency bucket names the span tree that filled it; untraced runs
      // keep the plain (pre-exemplar) observation path.
      if (job.ctx.valid()) {
        m_latency_ms_->observe_exemplar(to_millis(times.latency()),
                                        job.ctx.trace_id);
        m_queue_wait_ms_->observe_exemplar(to_millis(times.queue_wait()),
                                           job.ctx.trace_id);
      } else {
        m_latency_ms_->observe(to_millis(times.latency()));
        m_queue_wait_ms_->observe(to_millis(times.queue_wait()));
      }
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
    flight_->record(now, "serve", "retry",
                    "job " + std::to_string(job.id) + " attempt " +
                        std::to_string(job.attempt + 1) + " in " +
                        std::to_string((backoff + jitter) / kMicrosecond) +
                        "us");
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
  shed_.push_back(job);
  shed_at_.push_back(sim_.now());
  if (m_shed_ != nullptr) m_shed_->inc();
  if (flight_ != nullptr) {
    flight_->record(sim_.now(), "serve", "shed",
                    "job " + std::to_string(job.id) + ": " + reason);
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
    // The node=N prefix makes a fleet's transition attributable without a
    // trace; standalone services have none, so their recorded bytes are
    // unchanged.
    flight_->record(at, "serve", "breaker",
                    flight_label_ + placement_name(device) + " " +
                        fault::breaker_state_name(from) + " -> " +
                        fault::breaker_state_name(to));
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
  report.rejected = static_cast<std::int64_t>(rejected_.size());
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
    report.shed = static_cast<std::int64_t>(shed_.size());
    report.fallback_cpu_jobs = fallback_cpu_jobs_;
  }

  if (served_.empty()) return report;

  report.served = static_cast<std::int64_t>(served_.size());
  report.bytes_served = bytes_served_;
  report.um_jobs = um_jobs_;
  report.deadline_missed = deadline_missed_;
  // Entries are in completion order, so the last one completed last.
  report.makespan = served_.back().completion - first_arrival_;
  if (report.makespan > 0) {
    const double seconds = to_seconds(report.makespan);
    report.throughput_jobs_per_s =
        static_cast<double>(report.served) / seconds;
    report.throughput_gbps =
        static_cast<double>(report.bytes_served) / 1e9 / seconds;
  }
  // One buffer at a time: make_latency_stats consumes it.
  const auto stats_of = [this](SimTime (JobTimes::*span)() const) {
    std::vector<double> ms;
    ms.reserve(served_.size());
    for (const JobTimes& times : served_) {
      ms.push_back(to_millis((times.*span)()));
    }
    return make_latency_stats(std::move(ms));
  };
  report.latency = stats_of(&JobTimes::latency);
  report.queue_wait = stats_of(&JobTimes::queue_wait);

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
