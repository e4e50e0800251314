// ghs_hostbench: host-time benchmark driver for the ghsum simulator.
//
//   ghs_hostbench --workload=serve_open|fleet_observed|paper_repro
//                 --seed=N --seconds=S [--trace] [--scale=full|smoke]
//
// Runs one workload against the library's public API, repeating
// (set-up, timed phase, checks) until S seconds of wall time have passed,
// and prints one JSON object of raw samples: the host time of every
// set-up and timed phase, the simulated outputs, the per-layer counters
// read from public getters and reports, and every check's verdict.
// hostbench/run.py turns the samples into the benchmark's metrics.
//
// Every repeat rebuilds its inputs from the seed and must reproduce the
// first repeat's simulated outputs byte for byte. With --trace, every
// public call the driver makes is wrapped in a host-time span (kept in
// memory, printed at the end), traced and untraced repeats alternate so
// the span overhead can be read off, and fleet_observed also times the
// hooks-off twin of each traced fleet.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <ostream>
#include <string>
#include <vector>

#include "ghs/cluster/cluster.hpp"
#include "ghs/core/reduce.hpp"
#include "ghs/core/sweep.hpp"
#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/stats/summary.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/timeseries/export.hpp"
#include "ghs/timeseries/scraper.hpp"
#include "ghs/timeseries/tsdb.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/trace/tracer.hpp"
#include "ghs/util/rng.hpp"

namespace {

using namespace ghs;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Host-time spans: name, start, end, parent, repeat. Disabled logs record
// nothing, so untraced repeats pay one branch per call.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, log_.now_ns(), 0,
                             log_.stack_.empty() ? -1 : log_.stack_.back(),
                             log_.run_});
      log_.stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      log_.spans_[static_cast<std::size_t>(index_)].end_ns = log_.now_ns();
      log_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  void begin_run(int run, bool enabled) {
    run_ = run;
    enabled_ = enabled;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  bool enabled_ = false;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Checks and output
// ---------------------------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// An output stream that keeps only the FNV-1a hash of what is written to
/// it: repeats compare their outputs by hash, and the exports cost their
/// formatting but no memory, so they do not inflate the peak RSS.
class HashStream : public std::ostream {
 public:
  HashStream() : std::ostream(nullptr) { rdbuf(&buf_); }
  HashStream(const HashStream&) = delete;
  HashStream& operator=(const HashStream&) = delete;

  std::uint64_t hash() const { return buf_.hash; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void add(char c) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ull;
    }
    int_type overflow(int_type c) override {
      if (!traits_type::eq_int_type(c, traits_type::eof())) {
        add(traits_type::to_char_type(c));
      }
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      for (std::streamsize i = 0; i < n; ++i) add(s[i]);
      return n;
    }
  };

  Buf buf_;
};

struct RepeatSample {
  double setup_s = 0.0;
  double timed_s = 0.0;
  /// Host time of the simulator's run call alone.
  double run_s = 0.0;
  bool traced = false;
  /// fleet_observed traced repeats: Cluster::run of the hooks-off twin.
  double twin_run_s = -1.0;
  /// Host time of each unit of the timed phase, in order: each public call
  /// (serving workloads) or each (step, case) of the protocol (paper_repro).
  std::vector<double> part_s;
};

/// Appends the host time of its scope to a repeat's list of timed units.
class TimedPart {
 public:
  explicit TimedPart(std::vector<double>& parts) : parts_(parts) {}
  ~TimedPart() { parts_.push_back(seconds_between(start_, Clock::now())); }
  TimedPart(const TimedPart&) = delete;
  TimedPart& operator=(const TimedPart&) = delete;

 private:
  std::vector<double>& parts_;
  Clock::time_point start_ = Clock::now();
};

struct Result {
  std::vector<RepeatSample> repeats;
  std::int64_t jobs_per_repeat = 0;
  /// Peak resident set size after the first repeat.
  double peak_rss_mb = 0.0;
  /// Simulated end-to-end outputs (deterministic per seed).
  std::map<std::string, double> sim;
  /// Per-layer counters from public getters, reports and telemetry.
  std::map<std::string, double> layers;
  Checks checks;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Moves the process across the CPUs it may run on, one per repeat. On a
/// shared VM one vCPU can run 1.7x slower than another for seconds at a
/// time (its host core is busy elsewhere); visiting every vCPU lets the
/// fastest repeats come from whichever is quiet. Restores the original
/// mask when done.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int turn) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(turn) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Runs `repeat(index, traced)` until `seconds` of wall time have passed,
/// and at least three times so repeats can be compared. Traced runs
/// alternate traced and untraced repeats, each pair on one CPU.
void repeat_until(const Args& args, SpanLog& spans,
                  const std::function<RepeatSample(int, bool)>& repeat,
                  Result& result) {
  const auto start = Clock::now();
  const int min_repeats = args.trace ? 4 : 3;
  CpuRotation rotation;
  for (int i = 0; i < 500; ++i) {
    if (i >= min_repeats &&
        seconds_between(start, Clock::now()) >= args.seconds) {
      break;
    }
    const bool traced = args.trace && i % 2 == 0;
    rotation.pin(args.trace ? i / 2 : i);
    spans.begin_run(i, traced);
    RepeatSample sample = repeat(i, traced);
    sample.traced = traced;
    result.repeats.push_back(sample);
    // The peak of the first repeat: later repeats reuse freed memory but
    // fragment it a little more each time, so a peak read at the end would
    // grow with the number of repeats, that is, with the host's speed.
    if (i == 0) result.peak_rss_mb = peak_rss_mb();
  }
  spans.begin_run(-1, false);
}

/// Checks that a repeat reproduced the first repeat's outputs exactly.
void expect_same_outputs(Checks& checks, std::optional<std::uint64_t>& first,
                         std::uint64_t h) {
  if (!first) first = h;
  checks.expect(*first == h, "simulated outputs differ between repeats");
}

std::int64_t counter_total(const telemetry::Registry& registry,
                           const std::string& name) {
  std::int64_t total = 0;
  registry.visit([&](const telemetry::Registry::View& view) {
    if (view.name == name && view.counter != nullptr) {
      total += view.counter->value();
    }
  });
  return total;
}

// ---------------------------------------------------------------------------
// Serving set-up shared by serve_open and fleet_observed
// ---------------------------------------------------------------------------

/// Element counts a launch can total when its first job has `front`
/// elements: batching coalesces up to max_jobs - 1 further small jobs of
/// the same case (see ReductionService::dispatch).
std::set<std::int64_t> batch_totals(std::int64_t front,
                                    const std::vector<std::int64_t>& sizes,
                                    const serve::BatchOptions& batching) {
  std::set<std::int64_t> totals = {front};
  if (!batching.enable || front > batching.small_elements) return totals;
  std::set<std::int64_t> frontier = {front};
  for (int k = 1; k < batching.max_jobs; ++k) {
    std::set<std::int64_t> next;
    for (const std::int64_t total : frontier) {
      for (const std::int64_t size : sizes) {
        if (size > batching.small_elements) continue;
        if (total + size > batching.max_batch_elements) continue;
        next.insert(total + size);
      }
    }
    totals.insert(next.begin(), next.end());
    frontier = std::move(next);
  }
  return totals;
}

/// Prices every shape the workload can draw: the tuned geometry of every
/// (case, size), then the GPU, CPU and unified-memory service time of
/// every launch total batching can form from it. Afterwards the timed
/// phase never runs a substrate simulation.
void warm_shapes(serve::ServiceModel& model,
                 std::vector<serve::BandwidthAwarePolicy*> policies,
                 const serve::WorkloadShape& shape,
                 const serve::BatchOptions& batching) {
  std::vector<std::int64_t> sizes;
  for (int k = shape.min_log2_elements; k <= shape.max_log2_elements; ++k) {
    sizes.push_back(std::int64_t{1} << k);
  }
  for (const auto& entry : shape.mix) {
    for (const std::int64_t front : sizes) {
      serve::Job job;
      job.case_id = entry.case_id;
      job.elements = front;
      core::ReduceTuning tuning;
      for (auto* policy : policies) {
        tuning = policy->geometry(job);
        policy->cpu_eligible(job);
      }
      for (const std::int64_t total : batch_totals(front, sizes, batching)) {
        model.gpu_service(entry.case_id, total, tuning);
        model.cpu_service(entry.case_id, total);
        if (shape.um_fraction > 0.0) {
          model.unified_migration_share(entry.case_id, total, tuning);
        }
      }
    }
  }
}

void add_service_layers(const serve::ServiceReport& r, Result& result) {
  auto& l = result.layers;
  l["serve.launches"] += static_cast<double>(r.launches);
  l["serve.batched_jobs"] += static_cast<double>(r.batched_jobs);
  l["serve.served"] += static_cast<double>(r.served);
  l["serve.queue_hwm"] =
      std::max(l["serve.queue_hwm"], static_cast<double>(r.queue_high_watermark));
  l["serve.rejected"] += static_cast<double>(r.rejected);
  l["serve.tuner_hits"] += static_cast<double>(r.tuner_hits);
  l["serve.tuner_misses"] += static_cast<double>(r.tuner_misses);
  l["fault.retries"] += static_cast<double>(r.retries);
  l["fault.gpu_failures"] += static_cast<double>(r.gpu_failures);
  l["fault.breaker_opens"] += static_cast<double>(r.breaker_opens);
  l["fault.shed"] += static_cast<double>(r.shed);
}

// ---------------------------------------------------------------------------
// serve_open: one ReductionService, bandwidth-aware policy, open-loop
// Poisson arrivals at a rate the node fully serves, no hooks.
// ---------------------------------------------------------------------------

Result run_serve_open(const Args& args, SpanLog& spans) {
  Result result;
  serve::OpenLoopOptions open;
  open.rate_hz = 100000.0;
  open.jobs = args.smoke ? 2000 : 1000000;
  open.seed = args.seed;
  const serve::ServiceOptions service_options;
  result.jobs_per_repeat = open.jobs;
  std::optional<std::uint64_t> first;

  repeat_until(args, spans, [&](int, bool) {
    RepeatSample sample;
    std::unique_ptr<serve::ServiceModel> model;
    std::unique_ptr<serve::ReductionService> service;
    std::vector<serve::Job> jobs;
    const auto t0 = Clock::now();
    {
      SpanLog::Scope setup(spans, "setup");
      {
        SpanLog::Scope s(spans, "workload.gen");
        jobs = serve::open_loop_poisson(open);
      }
      std::unique_ptr<serve::BandwidthAwarePolicy> policy;
      {
        SpanLog::Scope s(spans, "model.warm");
        model = std::make_unique<serve::ServiceModel>();
        policy = std::make_unique<serve::BandwidthAwarePolicy>(*model);
        warm_shapes(*model, {policy.get()}, open.shape,
                    service_options.batching);
      }
      SpanLog::Scope s(spans, "serve.build");
      service = std::make_unique<serve::ReductionService>(
          std::move(policy), *model, service_options);
    }
    const auto t1 = Clock::now();
    const std::int64_t misses_before = model->misses();
    serve::ServiceReport report;
    HashStream outputs;
    {
      SpanLog::Scope timed(spans, "timed");
      {
        SpanLog::Scope s(spans, "serve.submit");
        TimedPart p(sample.part_s);
        service->submit_all(std::move(jobs));
      }
      {
        SpanLog::Scope s(spans, "serve.run");
        TimedPart p(sample.part_s);
        service->run();
      }
      sample.run_s = sample.part_s.back();
      SpanLog::Scope s(spans, "serve.report");
      TimedPart p(sample.part_s);
      report = service->report();
      report.write_json(outputs);
    }
    const auto t2 = Clock::now();
    sample.setup_s = seconds_between(t0, t1);
    sample.timed_s = seconds_between(t1, t2);

    SpanLog::Scope check(spans, "check");
    Checks& c = result.checks;
    c.expect(report.submitted == open.jobs, "every arrival was submitted");
    c.expect(report.submitted ==
                 report.served + report.rejected + report.shed,
             "job conservation: submitted == served + rejected + shed");
    c.expect(model->misses() == misses_before,
             "no ServiceModel miss inside the timed phase");
    expect_same_outputs(c, first, outputs.hash());

    if (result.repeats.empty()) {
      result.sim["sim_gbps"] = report.throughput_gbps;
      result.sim["sim_p99_ms"] = report.latency.pct.p99;
      result.sim["ok_frac"] = static_cast<double>(report.served) /
                              static_cast<double>(report.submitted);
      auto& l = result.layers;
      l["workload.jobs"] = static_cast<double>(open.jobs);
      l["model.misses"] = static_cast<double>(misses_before);
      l["model.hits"] = static_cast<double>(model->hits());
      l["model.timed_misses"] =
          static_cast<double>(model->misses() - misses_before);
      l["sim.events"] =
          static_cast<double>(service->sim().events_processed());
      l["sim.peak_queue"] =
          static_cast<double>(service->sim().peak_queue_size());
      add_service_layers(report, result);
    }
    return sample;
  }, result);

  if (args.trace) {
    // The tuner counts its probes only into a telemetry registry, and the
    // timed repeats attach none; one instrumented warm-up outside them
    // reads the count.
    telemetry::Registry registry;
    telemetry::FlightRecorder flight;
    serve::ServiceModelOptions model_options;
    model_options.telemetry = telemetry::Sink{&registry, &flight};
    serve::ServiceModel model(model_options);
    serve::BandwidthAwarePolicy policy(model);
    warm_shapes(model, {&policy}, open.shape, service_options.batching);
    result.checks.expect(
        static_cast<double>(model.misses()) == result.layers["model.misses"],
        "telemetry changes no warm-up pricing");
    result.layers["tuner.probes"] = static_cast<double>(
        counter_total(registry, "ghs_tuner_probes_total"));
  }
  return result;
}

// ---------------------------------------------------------------------------
// fleet_observed: 16 nodes on one simulator behind the p2c router, remote
// data and unified-memory tenants, a fault plan on one node, one crash and
// restart under the phi-accrual detector, and every observability hook on
// with all exports inside the timed phase.
// ---------------------------------------------------------------------------

struct FleetPlan {
  cluster::ClusterOptions options;
  serve::OpenLoopOptions open;
  fault::FaultPlan faults;
  std::uint64_t fault_seed = 0;
  int tenants = 64;
  double remote_fraction = 0.3;
  double trace_sample = 0.01;
  SimTime scrape = kMillisecond;
  SimTime profile = kMillisecond;
};

FleetPlan make_fleet_plan(const Args& args) {
  FleetPlan plan;
  const int nodes = 16;
  const double rate_per_node = 50000.0;
  plan.open.jobs = args.smoke ? 4000 : 75000;
  plan.open.rate_hz = rate_per_node * nodes;
  plan.open.seed = args.seed;
  plan.open.shape.um_fraction = 0.1;
  // Simulated span of the arrivals; fault and crash times scale with it.
  const auto horizon = static_cast<SimTime>(
      static_cast<double>(plan.open.jobs) / plan.open.rate_hz *
      static_cast<double>(kSecond));
  auto at = [horizon](double share) {
    return static_cast<SimTime>(share * static_cast<double>(horizon));
  };

  auto& o = plan.options;
  o.nodes = nodes;
  o.router = cluster::RouterPolicy::kP2c;
  o.policy = "bandwidth";
  o.router_seed = args.seed ^ 0xC105CE12ULL;
  o.fault_node = 3;
  plan.faults.outages.push_back({fault::Target::kGpu, {at(0.15), at(0.2)}});
  plan.faults.kernel_faults.push_back({fault::Target::kGpu, 0.02, {}});
  plan.fault_seed = args.seed ^ 0xFA017ULL;
  // The restart comes long after the detector declares the node dead, so
  // recovery replays its journal onto peers. (A restart the detector never
  // saw, with the detector on, trips an invariant in Cluster: a completion
  // for a job it no longer tracks.)
  o.crash_plan.crashes.push_back({9, at(0.4), at(0.8)});
  o.health.enabled = true;
  o.health.interval = 100 * kMicrosecond;
  return plan;
}

/// Tenant identity and data placement, as cluster_loadgen derives them:
/// tenants hash from job ids, and a seeded share of jobs keeps its data on
/// the tenant's consistent-hash home node.
void shard_jobs(std::vector<serve::Job>& jobs, const FleetPlan& plan,
                const cluster::HashRing& ring) {
  Rng remote(plan.open.seed ^ 0xD15C0FF5E7ULL);
  for (auto& job : jobs) {
    job.tenant = static_cast<std::int64_t>(
        cluster::mix64(static_cast<std::uint64_t>(job.id)) %
        static_cast<std::uint64_t>(plan.tenants));
    if (remote.next_double() < plan.remote_fraction) {
      job.source_node = ring.owner(static_cast<std::uint64_t>(job.tenant));
    }
  }
}

std::vector<serve::BandwidthAwarePolicy*> node_policies(
    cluster::Cluster& fleet) {
  std::vector<serve::BandwidthAwarePolicy*> policies;
  for (int i = 0; i < fleet.nodes(); ++i) {
    policies.push_back(
        dynamic_cast<serve::BandwidthAwarePolicy*>(&fleet.node(i).policy()));
  }
  return policies;
}

/// One fleet with every hook attached (or none, for the twin).
struct Fleet {
  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  trace::Tracer tracer;
  timeseries::Tsdb store;
  std::optional<fault::Injector> injector;
  std::optional<profile::Recorder> recorder;
  std::unique_ptr<serve::ServiceModel> model;
  std::unique_ptr<cluster::Cluster> cluster;
  std::optional<timeseries::Scraper> scraper;
  std::optional<profile::Profiler> profiler;

  Fleet(const FleetPlan& plan, bool hooks) {
    const telemetry::Sink sink =
        hooks ? telemetry::Sink{&registry, &flight, true} : telemetry::Sink{};
    serve::ServiceModelOptions model_options;
    model_options.telemetry = sink;
    model = std::make_unique<serve::ServiceModel>(model_options);
    cluster::ClusterOptions options = plan.options;
    options.node.telemetry = sink;
    injector.emplace(plan.faults, plan.fault_seed, sink);
    options.node.injector = &*injector;
    if (hooks) {
      recorder.emplace();
      options.node.profile = &*recorder;
      tracer.set_sampler(trace::SamplerOptions{plan.trace_sample,
                                               plan.open.seed});
    }
    cluster = std::make_unique<cluster::Cluster>(*model, options,
                                                 hooks ? &tracer : nullptr);
    if (hooks) {
      timeseries::ScraperOptions scrape;
      scrape.interval = plan.scrape;
      scraper.emplace(cluster->sim(), registry, store, scrape);
      scraper->start();
      profile::ProfilerOptions sampling;
      sampling.interval = plan.profile;
      profiler.emplace(cluster->sim(), *recorder, sampling, &store);
      profiler->start();
    }
  }
};

std::vector<slo::Objective> fleet_objectives() {
  return {{"availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0},
          {"latency_p99", slo::ObjectiveKind::kLatencyQuantile, 0.99, 1.0}};
}

Result run_fleet_observed(const Args& args, SpanLog& spans) {
  Result result;
  const FleetPlan plan = make_fleet_plan(args);
  result.jobs_per_repeat = plan.open.jobs;
  std::optional<std::uint64_t> first;

  repeat_until(args, spans, [&](int, bool traced) {
    RepeatSample sample;
    std::unique_ptr<Fleet> fleet;
    std::vector<serve::Job> jobs;
    const auto t0 = Clock::now();
    {
      SpanLog::Scope setup(spans, "setup");
      {
        SpanLog::Scope s(spans, "cluster.build");
        fleet = std::make_unique<Fleet>(plan, true);
      }
      {
        SpanLog::Scope s(spans, "model.warm");
        warm_shapes(*fleet->model, node_policies(*fleet->cluster),
                    plan.open.shape, plan.options.node.batching);
      }
      SpanLog::Scope s(spans, "workload.gen");
      jobs = serve::open_loop_poisson(plan.open);
      shard_jobs(jobs, plan, fleet->cluster->router().ring());
    }
    const auto t1 = Clock::now();
    cluster::Cluster& cluster = *fleet->cluster;
    const std::int64_t misses_before = fleet->model->misses();
    cluster::ClusterReport report;
    HashStream out;
    profile::ConservationCheck ledger;
    {
      SpanLog::Scope timed(spans, "timed");
      {
        SpanLog::Scope s(spans, "cluster.submit");
        TimedPart p(sample.part_s);
        cluster.submit_all(std::move(jobs));
      }
      {
        SpanLog::Scope s(spans, "cluster.run");
        TimedPart p(sample.part_s);
        cluster.run();
      }
      sample.run_s = sample.part_s.back();
      {
        SpanLog::Scope s(spans, "cluster.report");
        TimedPart p(sample.part_s);
        report = cluster.report();
        report.write_json(out);
      }
      {
        SpanLog::Scope s(spans, "telemetry.export");
        TimedPart p(sample.part_s);
        telemetry::write_prometheus(out, fleet->registry);
        telemetry::write_json_snapshot(out, fleet->registry);
      }
      {
        SpanLog::Scope s(spans, "timeseries.export");
        TimedPart p(sample.part_s);
        fleet->scraper->finish();
        timeseries::write_series_json(
            out, fleet->store,
            {fleet->scraper->interval(), fleet->scraper->scrapes()});
      }
      {
        SpanLog::Scope s(spans, "profile.export");
        TimedPart p(sample.part_s);
        fleet->profiler->finish();
        fleet->profiler->write_collapsed(out);
        const auto totals = cluster.conservation_totals();
        ledger = fleet->recorder->ledger().check(totals);
        fleet->recorder->ledger().write_json(out, totals);
      }
      {
        SpanLog::Scope s(spans, "trace.export");
        TimedPart p(sample.part_s);
        trace::ChromeTraceExporter exporter(fleet->tracer);
        for (auto& track :
             timeseries::counter_tracks(fleet->store, plan.scrape)) {
          exporter.add_counter_track(std::move(track));
        }
        for (auto& track : fleet->profiler->tracks()) {
          exporter.add_profile_track(std::move(track));
        }
        exporter.write(out);
      }
      SpanLog::Scope s(spans, "slo.eval");
      TimedPart p(sample.part_s);
      slo::Monitor monitor(fleet_objectives());
      cluster.feed_slo(monitor);
      monitor.evaluate().write_json(out);
    }
    const auto t2 = Clock::now();
    sample.setup_s = seconds_between(t0, t1);
    sample.timed_s = seconds_between(t1, t2);

    {
      SpanLog::Scope check(spans, "check");
      Checks& c = result.checks;
      c.expect(report.submitted == plan.open.jobs,
               "every arrival was submitted");
      c.expect(report.submitted ==
                   report.served + report.rejected + report.shed,
               "fleet job conservation: submitted == served + rejected + "
               "shed");
      std::int64_t node_served = 0;
      for (const auto& node : report.node_reports) {
        node_served += node.served;
        c.expect(node.served + node.rejected + node.shed <= node.submitted,
                 "node job conservation: no node ends more jobs than it "
                 "was given");
      }
      c.expect(node_served == report.served,
               "nodes' served jobs sum to the fleet's");
      c.expect(ledger.ok(),
               "cost ledger conserves device time (1 tick) and bytes");
      c.expect(fleet->model->misses() == misses_before,
               "no ServiceModel miss inside the timed phase");
      expect_same_outputs(c, first, out.hash());
    }

    if (traced) {
      // The hooks-off twin: same seed, same faults and crash, no
      // telemetry, tracer, scraper, profiler or ledger.
      SpanLog::Scope twin_span(spans, "obs.twin");
      Fleet twin(plan, false);
      warm_shapes(*twin.model, node_policies(*twin.cluster), plan.open.shape,
                  plan.options.node.batching);
      std::vector<serve::Job> twin_jobs = serve::open_loop_poisson(plan.open);
      shard_jobs(twin_jobs, plan, twin.cluster->router().ring());
      twin.cluster->submit_all(std::move(twin_jobs));
      const auto run0 = Clock::now();
      twin.cluster->run();
      sample.twin_run_s = seconds_between(run0, Clock::now());
      const auto twin_report = twin.cluster->report();
      result.checks.expect(twin_report.served == report.served,
                           "hooks change no simulated outcome");
    }

    if (result.repeats.empty()) {
      result.sim["sim_gbps"] = report.throughput_gbps;
      result.sim["sim_p99_ms"] = report.latency.pct.p99;
      result.sim["ok_frac"] = static_cast<double>(report.served) /
                              static_cast<double>(report.submitted);
      auto& l = result.layers;
      l["workload.jobs"] = static_cast<double>(plan.open.jobs);
      l["model.misses"] = static_cast<double>(misses_before);
      l["model.hits"] = static_cast<double>(fleet->model->hits());
      l["model.timed_misses"] =
          static_cast<double>(fleet->model->misses() - misses_before);
      l["tuner.probes"] = static_cast<double>(
          counter_total(fleet->registry, "ghs_tuner_probes_total"));
      l["sim.events"] = static_cast<double>(cluster.sim().events_processed());
      l["sim.peak_queue"] =
          static_cast<double>(cluster.sim().peak_queue_size());
      for (const auto& node : report.node_reports) {
        add_service_layers(node, result);
      }
      l["cluster.transfers"] = static_cast<double>(report.transfers);
      l["cluster.transfer_gb"] = report.transfer_gb;
      l["cluster.remote_frac"] = static_cast<double>(report.remote_jobs) /
                                 static_cast<double>(report.submitted);
      l["cluster.spills"] = static_cast<double>(report.spills);
      l["cluster.spilled_saved"] = static_cast<double>(report.spilled_saved);
      l["cluster.steals"] = static_cast<double>(report.steals);
      l["cluster.stolen_jobs"] = static_cast<double>(report.stolen_jobs);
      l["cluster.imbalance"] = report.imbalance;
      const auto& m = report.membership;
      l["membership.replayed"] = static_cast<double>(m.replayed);
      l["membership.dup_suppressed"] =
          static_cast<double>(m.duplicate_suppressed);
      l["membership.transitions"] = static_cast<double>(m.transitions);
      l["membership.detect_ms"] = m.detection_max_ms;
      l["trace.spans_kept"] =
          static_cast<double>(fleet->tracer.spans().size());
      l["trace.dropped_by_sampler"] =
          static_cast<double>(fleet->tracer.dropped_by_sampler());
      l["timeseries.samples"] =
          static_cast<double>(fleet->store.total_points());
      l["profile.samples"] = static_cast<double>(fleet->profiler->samples());
    }
    return sample;
  }, result);
  return result;
}

// ---------------------------------------------------------------------------
// paper_repro: Table 1 (Listing 6, baseline vs the tuned sweep, C1-C4) and
// the optimized-kernel Listing 8 co-execution sweeps at both allocation
// sites (p = 0..1, N = 200), graded the way certify_reproduction grades
// them.
// ---------------------------------------------------------------------------

struct Grade {
  std::string metric;
  double simulated = 0.0;
  double paper = 0.0;
  double tolerance = 0.0;  // relative
};

struct PaperPlan {
  std::vector<workload::CaseId> cases;
  core::SweepOptions table1;
  /// Listing 8's N: timed repetitions per p.
  int iterations = 200;
};

/// The protocol in a seeded case order; the graded outputs do not depend
/// on it (every sweep runs on its own fresh platform).
PaperPlan make_paper_plan(const Args& args) {
  PaperPlan plan;
  plan.cases = workload::all_cases();
  Rng rng(args.seed);
  for (std::size_t i = plan.cases.size(); i > 1; --i) {
    std::swap(plan.cases[i - 1], plan.cases[rng.next_u64() % i]);
  }
  plan.table1.iterations = 5;  // as certify_reproduction: bandwidth is
                               // repetition-insensitive here
  plan.iterations = args.smoke ? 4 : 200;
  return plan;
}

std::int64_t paper_repetitions(const PaperPlan& plan) {
  std::int64_t configs = 1;  // the Listing 2 baseline
  for (const int v : plan.table1.vs) {
    for (const std::int64_t teams : plan.table1.teams) {
      if (teams % v == 0) ++configs;
    }
  }
  const auto cases = static_cast<std::int64_t>(plan.cases.size());
  const std::int64_t table1 = cases * configs * plan.table1.iterations;
  const std::int64_t um =
      2 * cases * static_cast<std::int64_t>(core::paper_cpu_parts().size()) *
      plan.iterations;
  return table1 + um;
}

struct PaperOutputs {
  std::vector<core::Table1Row> table1;
  core::UmExperimentSet um;
  /// Host time of each (step, case) unit, in protocol order.
  std::vector<double> part_s;
};

/// Table 1, then the optimized-kernel Listing 8 sweeps at A1 and A2, one
/// case at a time; a sink in `plan.table1.telemetry` instruments every
/// platform they build.
PaperOutputs run_paper_protocol(const PaperPlan& plan, SpanLog& spans) {
  PaperOutputs out;
  {
    SpanLog::Scope s(spans, "paper.table1");
    for (const auto case_id : plan.cases) {
      TimedPart p(out.part_s);
      out.table1.push_back(core::table1({case_id}, plan.table1).front());
    }
  }
  out.um.cases = plan.cases;
  core::UmSweepOptions um;
  um.optimized = true;
  um.iterations = plan.iterations;
  um.config = plan.table1.config;
  um.telemetry = plan.table1.telemetry;
  {
    SpanLog::Scope s(spans, "paper.um_a1_opt");
    um.site = core::AllocSite::kA1;
    for (const auto case_id : plan.cases) {
      TimedPart p(out.part_s);
      out.um.optimized_a1.push_back(core::um_sweep_case(case_id, um));
    }
  }
  SpanLog::Scope s(spans, "paper.um_a2_opt");
  um.site = core::AllocSite::kA2;
  for (const auto case_id : plan.cases) {
    TimedPart p(out.part_s);
    out.um.optimized_a2.push_back(core::um_sweep_case(case_id, um));
  }
  return out;
}

/// The certify_reproduction checks these sweeps determine, with its
/// paper values and tolerances. The baseline-kernel sweeps are not run,
/// so summarize_corun sees the optimized sweeps in their place and the
/// baseline-derived summary fields go ungraded.
std::vector<Grade> grade_paper(const PaperOutputs& out) {
  std::vector<Grade> grades;
  const double paper_base[] = {620, 172, 271, 526};
  const double paper_opt[] = {3795, 3596, 3790, 3833};
  const double paper_speedup[] = {6.120, 20.906, 13.985, 7.287};
  for (const auto& row : out.table1) {
    const auto c = static_cast<std::size_t>(row.case_id);
    const std::string name = workload::case_spec(row.case_id).name;
    grades.push_back({"Table1 " + name + " baseline GB/s", row.baseline_gbps,
                      paper_base[c], 0.05});
    grades.push_back({"Table1 " + name + " optimized GB/s",
                      row.optimized_gbps, paper_opt[c], 0.05});
    grades.push_back(
        {"Table1 " + name + " speedup", row.speedup, paper_speedup[c], 0.05});
  }
  core::UmExperimentSet set = out.um;
  set.baseline_a1 = set.optimized_a1;
  set.baseline_a2 = set.optimized_a2;
  const auto s = core::summarize_corun(set);
  grades.push_back({"IV.B avg best co-run speedup, optimized A1",
                    s.avg_best_speedup_optimized_a1, 2.484, 0.15});
  grades.push_back({"IV.B avg best co-run speedup, optimized A2",
                    s.avg_best_speedup_optimized_a2, 1.067, 0.10});
  grades.push_back(
      {"IV.B optimized co-run A1/A2", s.a1_over_a2_optimized, 2.299, 0.10});
  grades.push_back(
      {"IV.B CPU-only A2/A1", s.cpu_only_a2_over_a1, 1.367, 0.05});
  return grades;
}

std::uint64_t paper_outputs_hash(const PaperOutputs& out) {
  HashStream os;
  os.precision(17);
  for (const auto& row : out.table1) {
    os << row.baseline_gbps << ' ' << row.optimized_gbps << ' '
       << row.best.teams << ' ' << row.best.v << '\n';
  }
  for (const auto* runs : {&out.um.optimized_a1, &out.um.optimized_a2}) {
    for (const auto& run : *runs) {
      for (const auto& p : run.points) {
        os << p.cpu_part << ' ' << p.elapsed << ' ' << p.gpu_remote_bytes
           << ' ' << p.cpu_remote_bytes << '\n';
      }
    }
  }
  return os.hash();
}

Result run_paper_repro(const Args& args, SpanLog& spans) {
  constexpr int kSetupBuilds = 4096;
  Result result;
  std::optional<std::uint64_t> first;
  PaperPlan plan;

  repeat_until(args, spans, [&](int, bool) {
    RepeatSample sample;
    const auto t0 = Clock::now();
    {
      SpanLog::Scope setup(spans, "setup");
      // One set-up takes about a microsecond, below the jitter of a single
      // reading, so each repeat builds it kSetupBuilds times and reports
      // the mean.
      SpanLog::Scope s(spans, "workload.gen");
      for (int b = 0; b < kSetupBuilds; ++b) plan = make_paper_plan(args);
    }
    const auto t1 = Clock::now();
    PaperOutputs out;
    {
      SpanLog::Scope timed(spans, "timed");
      out = run_paper_protocol(plan, spans);
    }
    const auto t2 = Clock::now();
    sample.setup_s = seconds_between(t0, t1) / kSetupBuilds;
    sample.timed_s = seconds_between(t1, t2);
    sample.run_s = sample.timed_s;
    sample.part_s = out.part_s;

    SpanLog::Scope check(spans, "check");
    const auto grades = grade_paper(out);
    double err_max = 0.0;
    int in_band = 0;
    for (const auto& g : grades) {
      const double rel = std::abs(g.simulated - g.paper) / g.paper;
      err_max = std::max(err_max, rel);
      const bool ok = rel <= g.tolerance;
      in_band += ok ? 1 : 0;
      if (!args.smoke) result.checks.expect(ok, "paper grade: " + g.metric);
    }
    expect_same_outputs(result.checks, first, paper_outputs_hash(out));

    if (result.repeats.empty()) {
      SimTime elapsed = 0;
      double bytes = 0.0;
      std::vector<double> per_rep_ms;
      for (const auto* runs : {&out.um.optimized_a1, &out.um.optimized_a2}) {
        for (const auto& run : *runs) {
          for (const auto& p : run.points) {
            elapsed += p.elapsed;
            bytes += p.bandwidth.bytes_per_second * to_seconds(p.elapsed);
            per_rep_ms.push_back(to_seconds(p.elapsed) * 1e3 /
                                 plan.iterations);
          }
        }
      }
      result.sim["sim_gbps"] = bytes / to_seconds(elapsed) / 1e9;
      result.sim["sim_p99_ms"] = stats::percentiles(per_rep_ms).p99;
      result.sim["ok_frac"] =
          static_cast<double>(in_band) / static_cast<double>(grades.size());
      result.layers["paper.err_max"] = err_max;
      result.layers["paper.graded"] = static_cast<double>(grades.size());
    }
    return sample;
  }, result);
  result.jobs_per_repeat = paper_repetitions(plan);

  if (args.trace) {
    // One instrumented pass, outside the timed repeats, for the substrate
    // counters the uninstrumented protocol cannot report.
    telemetry::Registry registry;
    telemetry::FlightRecorder flight;
    PaperPlan counted = plan;
    counted.table1.telemetry = telemetry::Sink{&registry, &flight};
    SpanLog quiet;
    const auto out = run_paper_protocol(counted, quiet);
    result.checks.expect(
        paper_outputs_hash(out) ==
            paper_outputs_hash(run_paper_protocol(plan, quiet)),
        "telemetry changes no simulated output");
    auto& l = result.layers;
    l["gpu.kernels"] = static_cast<double>(
        counter_total(registry, "ghs_gpu_kernels_total"));
    l["gpu.waves"] =
        static_cast<double>(counter_total(registry, "ghs_gpu_waves_total"));
    l["um.migrations"] = static_cast<double>(
        counter_total(registry, "ghs_um_fault_migrations_total") +
        counter_total(registry, "ghs_um_background_migrations_total"));
    l["um.migrated_gb"] = static_cast<double>(counter_total(
                              registry, "ghs_um_migrated_bytes_total")) /
                          1e9;
    l["um.remote_gb"] = static_cast<double>(counter_total(
                            registry, "ghs_um_remote_bytes_total")) /
                        1e9;
    l["sim.events"] =
        static_cast<double>(counter_total(registry, "ghs_sim_events_total"));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void write_result(std::ostream& os, const Args& args, const Result& result,
                  const SpanLog& spans) {
  os << "{\"workload\":" << json_string(args.workload)
     << ",\"seed\":" << args.seed
     << ",\"jobs_per_repeat\":" << result.jobs_per_repeat
     << ",\"peak_rss_mb\":" << json_number(result.peak_rss_mb)
     << ",\"repeats\":[";
  for (std::size_t i = 0; i < result.repeats.size(); ++i) {
    const auto& r = result.repeats[i];
    os << (i ? "," : "") << "{\"setup_s\":" << json_number(r.setup_s)
       << ",\"timed_s\":" << json_number(r.timed_s)
       << ",\"run_s\":" << json_number(r.run_s)
       << ",\"traced\":" << (r.traced ? "true" : "false");
    if (r.twin_run_s >= 0.0) {
      os << ",\"twin_run_s\":" << json_number(r.twin_run_s);
    }
    os << ",\"part_s\":[";
    for (std::size_t p = 0; p < r.part_s.size(); ++p) {
      os << (p ? "," : "") << json_number(r.part_s[p]);
    }
    os << "]}";
  }
  os << "],\"sim\":{";
  const char* sep = "";
  for (const auto& [name, value] : result.sim) {
    os << sep << json_string(name) << ":" << json_number(value);
    sep = ",";
  }
  os << "},\"layers\":{";
  sep = "";
  for (const auto& [name, value] : result.layers) {
    os << sep << json_string(name) << ":" << json_number(value);
    sep = ",";
  }
  os << "},\"checks\":{\"attempted\":" << result.checks.attempted()
     << ",\"failed\":" << result.checks.failed() << ",\"failures\":[";
  sep = "";
  for (const auto& failure : result.checks.failures()) {
    os << sep << json_string(failure);
    sep = ",";
  }
  os << "]},\"spans\":[";
  sep = "";
  for (const auto& s : spans.spans()) {
    os << sep << "[" << json_string(s.name) << "," << s.start_ns << ","
       << s.end_ns << "," << s.parent << "," << s.run << "]";
    sep = ",";
  }
  os << "]}\n";
}

int usage(const std::string& error) {
  std::cerr << "ghs_hostbench: " << error
            << "\nusage: ghs_hostbench --workload=serve_open|fleet_observed|"
               "paper_repro --seed=N --seconds=S [--trace] "
               "[--scale=full|smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = true;
      } else if (key == "--scale" && (value == "full" || value == "smoke")) {
        args.smoke = value == "smoke";
      } else {
        return usage("unknown argument '" + arg + "'");
      }
    } catch (const std::exception&) {
      return usage("bad value in '" + arg + "'");
    }
  }
  if (!(args.seconds >= 0.0)) return usage("--seconds must be >= 0");

  const std::map<std::string, Result (*)(const Args&, SpanLog&)> workloads = {
      {"serve_open", run_serve_open},
      {"fleet_observed", run_fleet_observed},
      {"paper_repro", run_paper_repro}};
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    return usage("unknown workload '" + args.workload + "'");
  }
  SpanLog spans;
  const Result result = it->second(args, spans);
  write_result(std::cout, args, result, spans);
  return 0;
}
