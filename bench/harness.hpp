// The run harness both loadgens share (header-only: the loadgens do not
// link ghsum_bench_common).
//
// serve_loadgen drives one ReductionService and cluster_loadgen a Cluster
// of them, through the same instrumentation. Harness registers and
// validates the flags they share and owns what lives for the whole
// process: the telemetry sink, the service model, the fault plan and the
// report envelope. Run wires one run: the tracer, injector and cost
// recorder before the target is built, the scraper and profiler once it
// exists, and after it the checks, the trace, series and folded-stack
// files, and the report sections. Each loadgen keeps its workload, its own
// flags and its own report sections.
//
// A bad flag exits 2 with "program: message" before any simulated time
// passes (bench/flags.hpp). An error thrown once a run has started is a
// bug and aborts.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/profile/profiler.hpp"
#include "ghs/profile/recorder.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/timeseries/export.hpp"
#include "ghs/timeseries/report.hpp"
#include "ghs/timeseries/scraper.hpp"
#include "ghs/timeseries/tsdb.hpp"
#include "ghs/trace/chrome_exporter.hpp"
#include "ghs/util/cli.hpp"
#include "ghs/util/error.hpp"
#include "build_info.hpp"
#include "flags.hpp"

namespace ghs::bench {

/// The chaos plan --plan=builtin selects: a mid-run GPU outage (trips the
/// breaker, forces CPU fallback), a sprinkle of transient kernel faults,
/// and a tail brown-out with a migration stall for unified jobs. Sized
/// against serve_loadgen's default open-loop workload (200 jobs at 100k
/// jobs/s = ~2 ms of arrivals plus queue drain).
inline constexpr const char* kBuiltinPlan =
    "kernel-fault gpu p=0.02\n"
    "device-down gpu from=1ms until=2500us\n"
    "bandwidth gpu scale=0.5 from=3ms until=5ms\n"
    "migration-stall scale=0.25 from=3ms until=5ms\n";

/// Largest --max-log2 the workload generator accepts.
inline constexpr long long kMaxLog2Elements = 39;

/// Exits 2 Cli-style unless `jobs` open-loop arrivals at `rate_hz` fit
/// SimTime whatever the seed: the generator's uniform draws have 53 bits,
/// so no exponential gap exceeds 53 ln 2 / rate_hz seconds. (The fleet
/// offers rate * nodes, which only shortens the gaps.)
inline void require_arrivals_fit(const std::string& program, double rate_hz,
                                 long long jobs) {
  const double max_gap_ps =
      std::ceil(53.0 * std::log(2.0) / rate_hz * static_cast<double>(kSecond));
  if (!(static_cast<double>(jobs) * (max_gap_ps + 1.0) < 0x1p63)) {
    std::cerr << program << ": --rate=" << rate_hz
              << " is too low for --jobs=" << jobs
              << ": the arrivals could pass the simulated clock's range\n";
    std::exit(2);
  }
}

/// Exits 2 Cli-style unless the think times of `jobs` closed-loop jobs
/// fit SimTime with room to spare: a tenant's arrivals are the running sum
/// of its think and service times, so the think times may fill at most
/// half of the clock's range and leave the rest to the services.
inline void require_think_time_fits(const std::string& program,
                                    long long think_us, long long jobs) {
  const double think_ps = static_cast<double>(think_us) *
                          static_cast<double>(kMicrosecond);
  if (!(think_ps * static_cast<double>(jobs) < 0x1p62)) {
    std::cerr << program << ": --think-us=" << think_us
              << " is too long for --jobs=" << jobs
              << ": the arrivals could pass the simulated clock's range\n";
    std::exit(2);
  }
}

/// The --plan fault plan: none for "", the stock plan for "builtin",
/// otherwise the named file. A missing or malformed plan exits 2.
inline std::optional<fault::FaultPlan> load_plan_or_exit(
    const std::string& program, const std::string& plan) {
  if (plan.empty()) return std::nullopt;
  return parse_flag_or_exit(program, [&] {
    return plan == "builtin" ? fault::parse_plan(kBuiltinPlan)
                             : fault::load_plan(plan);
  });
}

/// Runs `run` (one simulated run), exiting 2 with a "program: message"
/// line when the fault plan turns out unusable mid-run (an entry stretches
/// a launch past SimTime's range): bad input, like a plan that fails to
/// parse. Any other error still terminates the program.
template <typename Run>
auto run_or_exit(const std::string& program, Run&& run) -> decltype(run()) {
  try {
    return run();
  } catch (const fault::PlanError& error) {
    std::cerr << program << ": " << error.what() << "\n";
    std::exit(2);
  }
}

struct ScrapeSettings {
  /// Simulated time between scrapes; 0 = scraping off.
  SimTime interval = 0;
  /// --series-out destination ("" = no dump). A ".csv" suffix selects the
  /// CSV flattening; anything else gets the ghs-series-v1 JSON.
  std::string series_path;

  bool enabled() const { return interval > 0; }
};

/// Validates the scrape flags Cli-style (stderr + exit 2): the interval
/// must be a non-negative time SimTime can hold, --series-out needs
/// --scrape-interval, and the series path's directory must exist.
inline ScrapeSettings scrape_settings_or_exit(const std::string& program,
                                              long long scrape_interval_us,
                                              const std::string& series_out) {
  ScrapeSettings settings;
  settings.interval =
      micros_or_exit(program, "--scrape-interval", scrape_interval_us);
  if (!series_out.empty() && scrape_interval_us == 0) {
    std::cerr << program
              << ": --series-out requires --scrape-interval > 0\n";
    std::exit(2);
  }
  require_writable_path(program, series_out);
  settings.series_path = series_out;
  return settings;
}

/// Writes the series dump for one completed scraped run. No-op without a
/// --series-out path.
inline void write_series_file(const std::string& program,
                              const ScrapeSettings& settings,
                              const timeseries::Tsdb& store,
                              const timeseries::Scraper& scraper) {
  if (settings.series_path.empty()) return;
  auto out = open_output_or_exit(program, settings.series_path);
  const timeseries::SeriesMeta meta{scraper.interval(), scraper.scrapes()};
  const std::string& path = settings.series_path;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    timeseries::write_series_csv(out, store, meta);
  } else {
    timeseries::write_series_json(out, store, meta);
    out << "\n";
  }
}

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
/// must be a non-negative time SimTime can hold, --profile-out needs
/// --profile-interval, and the output path's directory must exist.
inline ProfileSettings profile_settings_or_exit(
    const std::string& program, long long profile_interval_us,
    const std::string& profile_out, bool cost_report) {
  ProfileSettings settings;
  settings.interval =
      micros_or_exit(program, "--profile-interval", profile_interval_us);
  if (!profile_out.empty() && profile_interval_us == 0) {
    std::cerr << program
              << ": --profile-out requires --profile-interval > 0\n";
    std::exit(2);
  }
  require_writable_path(program, profile_out);
  settings.profile_out = profile_out;
  settings.cost_report = cost_report;
  return settings;
}

/// The stock objective set for --slo: three-nines availability plus a p99
/// latency bound.
inline std::vector<slo::Objective> default_objectives(double latency_ms) {
  std::vector<slo::Objective> objectives;
  objectives.push_back(slo::Objective{
      "availability", slo::ObjectiveKind::kAvailability, 0.999, 0.0});
  objectives.push_back(slo::Objective{
      "latency_p99", slo::ObjectiveKind::kLatencyQuantile, 0.99, latency_ms});
  return objectives;
}

/// What a run records and writes, from the output flags. With every flag
/// at its default nothing is attached and every artefact keeps the bytes
/// of an uninstrumented run.
struct Outputs {
  /// --trace destination ("" = no tracer attached).
  std::string trace_path;
  /// Head-sampling rate for the tracer; 1.0 keeps every span (and leaves
  /// the trace file byte-identical to a sampler-free run).
  double trace_sample = 1.0;
  ScrapeSettings scrape;
  ProfileSettings profile;
  /// SLO objectives evaluated per run; empty = no SLO section.
  std::vector<slo::Objective> slo_objectives;
};

/// The report sections one run adds to the labelled tail arrays.
struct RunSections {
  /// The policy or router name the run is reported under.
  std::string label;
  std::string slo;
  std::string timeline;
  std::string cost;
};

/// What differs between the loadgens' shared flags and report.
struct LoadgenInfo {
  const char* program;
  const char* description;
  /// Key naming each run in the labelled report arrays ("policy").
  const char* run_key;
  /// --policy default and help text.
  const char* policy;
  const char* policy_help;
  /// --jobs default.
  long long jobs;
};

class Harness {
 public:
  /// Registers the shared flags; the loadgen adds its own to `cli`.
  explicit Harness(const LoadgenInfo& info)
      : cli(info.program, info.description),
        rate(cli.add_double("rate", 100000.0,
                            "open-loop arrival rate per node, jobs/s")),
        jobs(cli.add_int("jobs", info.jobs, "total jobs to submit")),
        depth(cli.add_int("depth", 64, "admission queue depth per node")),
        seed(cli.add_int("seed", 42, "workload RNG seed")),
        policy(cli.add_string("policy", info.policy, info.policy_help)),
        min_log2(cli.add_int("min-log2", 16, "smallest job, log2(elements)")),
        max_log2(cli.add_int("max-log2", 21, "largest job, log2(elements)")),
        deadline_us(cli.add_int("deadline-us", 0,
                                "relative deadline (0 = best effort)")),
        um_fraction(cli.add_double(
            "um-fraction", 0.0,
            "fraction of jobs over unified-memory buffers (GPU-only "
            "placement)")),
        no_batch(cli.add_flag("no-batch", "disable launch batching")),
        no_cpu(cli.add_flag("no-cpu", "GPU-only device pools (no Grace CPU)")),
        plan(cli.add_string(
            "plan", "",
            "fault-plan file, or 'builtin' for the stock chaos plan "
            "(empty = no faults)")),
        fault_seed(cli.add_int("fault-seed", 7, "fault-injector RNG seed")),
        trace_path_(cli.add_string("trace", "",
                                   "write a Chrome-trace JSON timeline here")),
        trace_sample_(cli.add_double(
            "trace-sample", 1.0,
            "fraction of job traces kept by the head sampler (1.0 = all)")),
        metrics_out_(cli.add_string(
            "metrics-out", "",
            "write Prometheus metrics here (+ JSON snapshot at FILE.json)")),
        slo_(cli.add_flag(
            "slo", "evaluate SLOs per run and append an slo_report section")),
        slo_latency_ms_(cli.add_double(
            "slo-latency-ms", 1.0,
            "latency_p99 objective threshold, milliseconds")),
        scrape_interval_(cli.add_int(
            "scrape-interval", 0,
            "sim-time metrics scrape interval, microseconds (0 = off)")),
        series_out_(cli.add_string(
            "series-out", "",
            "write the scraped time-series dump here (.csv for CSV)")),
        profile_interval_(cli.add_int(
            "profile-interval", 0,
            "sim-time profiler sample interval, microseconds (0 = off)")),
        profile_out_(cli.add_string(
            "profile-out", "",
            "write collapsed stacks here (flamegraph.pl-compatible)")),
        cost_report_(cli.add_flag(
            "cost-report",
            "append per-tenant cost attribution to the report (+ stderr "
            "table)")),
        program_(info.program),
        run_key_(info.run_key) {}

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  Cli cli;
  // Shared flag values, valid after parse_or_exit.
  const double* const rate;
  const long long* const jobs;
  const long long* const depth;
  const long long* const seed;
  const std::string* const policy;
  const long long* const min_log2;
  const long long* const max_log2;
  const long long* const deadline_us;
  const double* const um_fraction;
  const bool* const no_batch;
  const bool* const no_cpu;
  const std::string* const plan;
  const long long* const fault_seed;

  /// Parses argv like Cli::parse_or_exit, validates the shared flags (any
  /// bad value exits 2), loads the fault plan, and builds the telemetry
  /// sink and the service model. Call before validating the loadgen's own
  /// flags.
  void parse_or_exit(int argc, const char* const* argv) {
    cli.parse_or_exit(argc, argv);
    outputs_.scrape =
        scrape_settings_or_exit(program_, *scrape_interval_, *series_out_);
    outputs_.profile = profile_settings_or_exit(
        program_, *profile_interval_, *profile_out_, *cost_report_);
    require_positive(program_, "--jobs", *jobs);
    require_positive(program_, "--rate", *rate);
    require_arrivals_fit(program_, *rate, *jobs);
    require_positive(program_, "--depth", *depth);
    require_in_range(program_, "--min-log2", *min_log2, 1, kMaxLog2Elements);
    require_in_range(program_, "--max-log2", *max_log2, *min_log2,
                     kMaxLog2Elements);
    deadline_ = micros_or_exit(program_, "--deadline-us", *deadline_us);
    require_fraction(program_, "--um-fraction", *um_fraction);
    require_fraction(program_, "--trace-sample", *trace_sample_);
    require_positive(program_, "--slo-latency-ms", *slo_latency_ms_);
    require_writable_path(program_, *metrics_out_);
    require_writable_path(program_, *trace_path_);
    plan_ = load_plan_or_exit(program_, *plan);

    outputs_.trace_path = *trace_path_;
    outputs_.trace_sample = *trace_sample_;
    if (*slo_) outputs_.slo_objectives = default_objectives(*slo_latency_ms_);
    // One registry accumulates across every run; a null one keeps
    // telemetry free when neither --metrics-out nor --scrape-interval was
    // given. No flight recorder: no output of a loadgen reads one.
    if (!metrics_out_->empty() || outputs_.scrape.enabled()) {
      sink_.metrics = &registry_;
    }
    sink_.timeline = outputs_.scrape.enabled();
    serve::ServiceModelOptions model_options;
    model_options.telemetry = sink_;
    model_.emplace(model_options);
    wall_start_ = std::chrono::steady_clock::now();
  }

  const std::string& program() const { return program_; }
  const std::string& run_key() const { return run_key_; }
  telemetry::Sink sink() const { return sink_; }
  serve::ServiceModel& model() { return *model_; }
  /// The --plan fault plan; null without --plan.
  const fault::FaultPlan* fault_plan() const {
    return plan_ ? &*plan_ : nullptr;
  }
  const Outputs& outputs() const { return outputs_; }

  /// Exits 2 unless `name` names a scheduler policy.
  void require_policy(const std::string& name) {
    parse_flag_or_exit(program_,
                       [&] { serve::make_policy(name, *model_); });
  }

  /// Generator settings from the workload flags, at --rate jobs/s.
  serve::OpenLoopOptions open_loop() const {
    serve::OpenLoopOptions open;
    open.shape.min_log2_elements = static_cast<int>(*min_log2);
    open.shape.max_log2_elements = static_cast<int>(*max_log2);
    open.shape.deadline = deadline_;
    open.shape.um_fraction = *um_fraction;
    open.rate_hz = *rate;
    open.jobs = *jobs;
    open.seed = static_cast<std::uint64_t>(*seed);
    return open;
  }

  /// One node's service options from the workload flags and the sink.
  serve::ServiceOptions node_options() const {
    serve::ServiceOptions node;
    node.queue_depth = static_cast<std::size_t>(*depth);
    node.batching.enable = !*no_batch;
    node.use_cpu = !*no_cpu;
    node.telemetry = sink_;
    return node;
  }

  /// Opens the report object with its build_info.
  void begin_report(std::ostream& os) const {
    os << "{";
    write_build_info(os);
  }

  /// Echoes the sampling intervals into the workload object; only when on,
  /// so unsampled reports keep their exact bytes.
  void write_interval_echo(std::ostream& os) const {
    if (outputs_.scrape.enabled()) {
      os << ",\"scrape_interval_us\":" << *scrape_interval_;
    }
    if (outputs_.profile.sampling()) {
      os << ",\"profile_interval_us\":" << *profile_interval_;
    }
  }

  /// Writes the slo_report, timeline_report and cost_report arrays, each
  /// present only when its flag is on, one entry per run.
  void write_sections(std::ostream& os,
                      const std::vector<RunSections>& runs) const {
    const auto write = [&](const char* name, const char* key,
                           std::string RunSections::*section) {
      os << ",\"" << name << "\":[";
      for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i > 0) os << ",";
        os << "{\"" << run_key_ << "\":\"" << runs[i].label << "\",\"" << key
           << "\":" << runs[i].*section << "}";
      }
      os << "]";
    };
    if (!outputs_.slo_objectives.empty()) {
      write("slo_report", "slo", &RunSections::slo);
    }
    if (outputs_.scrape.enabled()) {
      write("timeline_report", "timeline", &RunSections::timeline);
    }
    if (outputs_.profile.cost_report) {
      write("cost_report", "cost", &RunSections::cost);
    }
  }

  /// Closes the report: appends the metrics snapshot (with --metrics-out),
  /// prints the report on stdout, and writes the Prometheus exposition and
  /// the JSON snapshot files.
  void end_report(std::ostringstream& out) {
    const bool metrics = !metrics_out_->empty();
    if (metrics) {
      // Wall time is real-world and run-dependent, so the gauge is
      // volatile: it shows up in the Prometheus exposition but not in the
      // JSON snapshot, keeping same-seed snapshots byte-identical.
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - wall_start_;
      registry_
          .gauge("ghs_bench_wall_seconds", {},
                 "wall-clock duration of this bench process",
                 /*volatile_instrument=*/true)
          .set(wall.count());
      out << ",\"metrics\":";
      telemetry::write_json_snapshot(out, registry_);
    }
    out << "}";
    std::cout << out.str() << "\n";
    if (metrics) write_metrics_files(program_, *metrics_out_, registry_);
  }

 private:
  const std::string* const trace_path_;
  const double* const trace_sample_;
  const std::string* const metrics_out_;
  const bool* const slo_;
  const double* const slo_latency_ms_;
  const long long* const scrape_interval_;
  const std::string* const series_out_;
  const long long* const profile_interval_;
  const std::string* const profile_out_;
  const bool* const cost_report_;

  std::string program_;
  std::string run_key_;
  Outputs outputs_;
  /// --deadline-us as simulated time.
  SimTime deadline_ = 0;
  std::optional<fault::FaultPlan> plan_;
  telemetry::Registry registry_;
  telemetry::Sink sink_;
  std::optional<serve::ServiceModel> model_;
  std::chrono::steady_clock::time_point wall_start_;
};

/// One run's instrumentation around a service or a fleet. Declare it
/// before the target: the target keeps pointers to the tracer, injector
/// and recorder until its destructor runs.
class Run {
 public:
  /// Builds the tracer, a fresh Injector when `plan` is non-null (so every
  /// run replays the same (plan, seed) chaos), and the cost recorder when
  /// profiling, and hooks the last two into `node`.
  Run(const Harness& harness, const fault::FaultPlan* plan,
      serve::ServiceOptions& node, Outputs outputs)
      : harness_(harness),
        outputs_(std::move(outputs)),
        queue_capacity_(node.queue_depth) {
    tracer_.set_sampler(trace::SamplerOptions{
        outputs_.trace_sample, static_cast<std::uint64_t>(*harness.seed)});
    if (plan != nullptr) {
      injector_.emplace(*plan, static_cast<std::uint64_t>(*harness.fault_seed),
                        node.telemetry);
      node.injector = &*injector_;
    }
    if (outputs_.profile.enabled()) {
      recorder_.emplace();
      node.profile = &*recorder_;
    }
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// The tracer to hand the target; null without --trace.
  trace::Tracer* tracer() { return tracing() ? &tracer_ : nullptr; }

  /// Starts the scraper and the profiler on the target's simulator.
  void start(sim::Simulator& sim) {
    if (outputs_.scrape.enabled()) {
      timeseries::ScraperOptions options;
      options.interval = outputs_.scrape.interval;
      scraper_.emplace(sim, *harness_.sink().metrics, store_, options);
      scraper_->start();
    }
    if (outputs_.profile.sampling()) {
      profile::ProfilerOptions options;
      options.interval = outputs_.profile.interval;
      profiler_.emplace(sim, *recorder_, options, &store_);
      profiler_->start();
    }
  }

  /// Closes the run once the target has drained and returns its report.
  /// Checks that cost attribution reconciles and that every submitted job
  /// was served, rejected or shed; writes the trace, folded-stack and
  /// series files (the last run wins each file); and, given `sections`,
  /// fills the run's cost, timeline and SLO sections (the SLO monitor
  /// reads the target's outcomes()) and prints their stderr tables.
  template <typename Target>
  auto finish(const std::string& label, const Target& target,
              RunSections* sections) {
    const std::string& program = harness_.program();
    if (scraper_) scraper_->finish();
    if (profiler_) profiler_->finish();
    if (recorder_) {
      // Attribution must reconcile with the target's own busy/byte totals
      // on every profiled run, not just when the report is requested.
      const auto check =
          recorder_->ledger().check(target.conservation_totals());
      GHS_REQUIRE(check.ok(), "cost attribution leaked on "
                                  << harness_.run_key() << " '" << label
                                  << "'");
    }
    const telemetry::Sink sink = harness_.sink();
    if (tracing() && tracer_.sampler_active() && sink.metrics != nullptr) {
      // Sampler drops are a pure function of (seed, trace ids), so unlike
      // the wall gauge this counter may live in the deterministic snapshot.
      sink.metrics
          ->counter("ghs_trace_dropped_by_sampler_total", {},
                    "Span/instant records rejected by the trace head sampler")
          .inc(tracer_.dropped_by_sampler());
    }
    if (tracing()) {
      auto out = open_output_or_exit(program, outputs_.trace_path);
      trace::ChromeTraceExporter exporter(tracer_);
      if (scraper_) {
        for (auto& track :
             timeseries::counter_tracks(store_, outputs_.scrape.interval)) {
          exporter.add_counter_track(std::move(track));
        }
      }
      if (profiler_) {
        for (auto& track : profiler_->tracks()) {
          exporter.add_profile_track(std::move(track));
        }
      }
      exporter.write(out);
    }
    if (profiler_ && !outputs_.profile.profile_out.empty()) {
      auto out = open_output_or_exit(program, outputs_.profile.profile_out);
      profiler_->write_collapsed(out);
    }
    if (sections != nullptr) sections->label = label;
    if (sections != nullptr && outputs_.profile.cost_report) {
      std::ostringstream cost_os;
      recorder_->ledger().write_json(cost_os, target.conservation_totals());
      sections->cost = cost_os.str();
      std::cerr << "[" << label << "] ";
      recorder_->ledger().write_table(std::cerr, /*top_k=*/5);
    }
    if (scraper_) {
      write_series_file(program, outputs_.scrape, store_, *scraper_);
    }
    if (sections != nullptr && scraper_) {
      timeseries::TimelineOptions timeline_options;
      timeline_options.interval = outputs_.scrape.interval;
      timeline_options.queue_capacity = queue_capacity_;
      const auto timeline =
          timeseries::build_timeline(store_, timeline_options);
      std::ostringstream timeline_os;
      timeline.write_json(timeline_os);
      sections->timeline = timeline_os.str();
      std::cerr << "[" << label << "] ";
      timeline.write_table(std::cerr);
    }
    if (sections != nullptr && !outputs_.slo_objectives.empty()) {
      slo::Monitor monitor(outputs_.slo_objectives);
      monitor.feed(target.outcomes());
      std::ostringstream slo_os;
      monitor.evaluate().write_json(slo_os);
      sections->slo = slo_os.str();
    }
    auto report = target.report();
    // Zero-lost-jobs invariant: faults, crashes and overload may delay,
    // degrade, or shed work, but every submitted job must be accounted for.
    GHS_CHECK(report.submitted ==
                  report.served + report.rejected + report.shed,
              "lost jobs under " << label << ": submitted="
                                 << report.submitted
                                 << " served=" << report.served
                                 << " rejected=" << report.rejected
                                 << " shed=" << report.shed);
    return report;
  }

 private:
  bool tracing() const { return !outputs_.trace_path.empty(); }

  const Harness& harness_;
  Outputs outputs_;
  std::size_t queue_capacity_;
  trace::Tracer tracer_;
  std::optional<fault::Injector> injector_;
  std::optional<profile::Recorder> recorder_;
  timeseries::Tsdb store_;
  std::optional<timeseries::Scraper> scraper_;
  std::optional<profile::Profiler> profiler_;
};

}  // namespace ghs::bench
