#include "ghs/core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "ghs/stats/summary.hpp"
#include "ghs/util/error.hpp"

namespace ghs::core {

using workload::CaseId;
using workload::case_spec;

namespace {

/// The sweeps' instrument, resolved once per registry.
struct Instruments {
  explicit Instruments(telemetry::Registry& r)
      : evaluations(r.counter(
            "ghs_tuner_sweep_evaluations_total", {},
            "Fresh-platform evaluations performed by exhaustive sweeps")) {}

  telemetry::Counter& evaluations;
};

// Counts one sweep point's fresh platform against the tuner/sweep budget
// metric.
void count_evaluation(const telemetry::Sink& sink) {
  if (sink.metrics != nullptr) {
    sink.metrics->handles<Instruments>().evaluations.inc();
  }
}

// Runs one Listing 6 point on a fresh platform wired into the sweep's
// sink: `tuning` gives the clauses, nullopt is the Listing 2 baseline.
// Returns GB/s.
double listing6_gbps(CaseId case_id, std::optional<ReduceTuning> tuning,
                     const SweepOptions& opts) {
  Platform platform(opts.config, opts.telemetry);
  count_evaluation(opts.telemetry);
  GpuBenchmark bench;
  bench.case_id = case_id;
  bench.tuning = tuning;
  bench.elements = opts.elements;
  bench.iterations = opts.iterations;
  return run_gpu_benchmark(platform, bench).bandwidth.gbps();
}

}  // namespace

stats::Figure fig1_sweep(CaseId case_id, const SweepOptions& opts) {
  const auto& spec = case_spec(case_id);
  std::ostringstream title;
  title << "Fig.1 " << spec.name << " (" << spec.input_type << " -> "
        << spec.result_type << ")";
  stats::Figure figure(title.str(), "teams", "bandwidth GB/s");
  for (int v : opts.vs) {
    std::string series_name = "v";
    series_name += std::to_string(v);
    auto& series = figure.add_series(series_name);
    for (std::int64_t teams : opts.teams) {
      if (teams % v != 0) continue;
      series.add(static_cast<double>(teams),
                 listing6_gbps(case_id,
                               ReduceTuning{teams, opts.thread_limit, v},
                               opts));
    }
  }
  return figure;
}

std::vector<Table1Row> table1(const std::vector<CaseId>& cases,
                              const SweepOptions& opts) {
  const double peak = peak_gpu_bandwidth(opts.config).gbps();
  std::vector<Table1Row> rows;
  for (CaseId case_id : cases) {
    Table1Row row;
    row.case_id = case_id;
    row.baseline_gbps = listing6_gbps(case_id, std::nullopt, opts);
    row.optimized_gbps = 0.0;
    for (int v : opts.vs) {
      for (std::int64_t teams : opts.teams) {
        if (teams % v != 0) continue;
        const ReduceTuning tuning{teams, opts.thread_limit, v};
        const double gbps = listing6_gbps(case_id, tuning, opts);
        if (gbps > row.optimized_gbps) {
          row.optimized_gbps = gbps;
          row.best = tuning;
        }
      }
    }
    row.speedup = row.optimized_gbps / row.baseline_gbps;
    row.baseline_efficiency = row.baseline_gbps / peak;
    row.optimized_efficiency = row.optimized_gbps / peak;
    rows.push_back(row);
  }
  return rows;
}

HeteroBenchmarkResult um_sweep_case(CaseId case_id,
                                    const UmSweepOptions& opts) {
  Platform platform(opts.config, opts.telemetry);
  count_evaluation(opts.telemetry);
  HeteroBenchmark bench;
  bench.case_id = case_id;
  bench.tuning = opts.optimized
                     ? std::optional<ReduceTuning>(paper_best_tuning(case_id))
                     : std::nullopt;
  bench.site = opts.site;
  bench.cpu_parts = opts.cpu_parts;
  bench.elements = opts.elements;
  bench.iterations = opts.iterations;
  return run_hetero_benchmark(platform, bench);
}

stats::Figure um_figure(const std::vector<CaseId>& cases,
                        const UmSweepOptions& opts) {
  std::ostringstream title;
  title << "UM co-execution, " << (opts.optimized ? "optimized" : "baseline")
        << " kernel, " << alloc_site_name(opts.site);
  stats::Figure figure(title.str(), "cpu_part", "bandwidth GB/s");
  for (CaseId case_id : cases) {
    const auto result = um_sweep_case(case_id, opts);
    auto& series = figure.add_series(case_spec(case_id).name);
    for (const auto& point : result.points) {
      series.add(point.cpu_part, point.bandwidth.gbps());
    }
  }
  return figure;
}

stats::Figure speedup_figure(const stats::Figure& baseline,
                             const stats::Figure& optimized,
                             const std::string& title) {
  stats::Figure figure(title, "cpu_part", "speedup (optimized / baseline)");
  for (const auto& base_series : baseline.series()) {
    const auto* opt_series = optimized.find_series(base_series.name());
    GHS_REQUIRE(opt_series != nullptr,
                "series '" << base_series.name() << "' missing");
    auto& out = figure.add_series(base_series.name());
    for (const auto& point : base_series.points()) {
      const auto opt_y = opt_series->at(point.x);
      GHS_REQUIRE(opt_y.has_value(), "no optimized point at x=" << point.x);
      GHS_REQUIRE(point.y > 0.0, "zero baseline bandwidth");
      out.add(point.x, *opt_y / point.y);
    }
  }
  return figure;
}

UmExperimentSet run_um_experiments(const std::vector<CaseId>& cases,
                                   const UmSweepOptions& base_opts) {
  UmExperimentSet set;
  set.cases = cases;
  for (CaseId case_id : cases) {
    UmSweepOptions opts = base_opts;
    opts.site = AllocSite::kA1;
    opts.optimized = false;
    set.baseline_a1.push_back(um_sweep_case(case_id, opts));
    opts.optimized = true;
    set.optimized_a1.push_back(um_sweep_case(case_id, opts));
    opts.site = AllocSite::kA2;
    opts.optimized = false;
    set.baseline_a2.push_back(um_sweep_case(case_id, opts));
    opts.optimized = true;
    set.optimized_a2.push_back(um_sweep_case(case_id, opts));
  }
  return set;
}

namespace {

double average_best_speedup(const std::vector<HeteroBenchmarkResult>& runs) {
  std::vector<double> values;
  for (const auto& run : runs) {
    values.push_back(run.best_speedup_over_gpu_only());
  }
  return stats::arithmetic_mean(values);
}

void speedup_extrema(const std::vector<HeteroBenchmarkResult>& baseline,
                     const std::vector<HeteroBenchmarkResult>& optimized,
                     double& min_out, double& max_out) {
  min_out = std::numeric_limits<double>::infinity();
  max_out = 0.0;
  for (std::size_t c = 0; c < baseline.size(); ++c) {
    for (const auto& base_point : baseline[c].points) {
      const auto& opt_point = optimized[c].at(base_point.cpu_part);
      const double speedup = opt_point.bandwidth.bytes_per_second /
                             base_point.bandwidth.bytes_per_second;
      min_out = std::min(min_out, speedup);
      max_out = std::max(max_out, speedup);
    }
  }
}

}  // namespace

CorunSummary summarize_corun(const UmExperimentSet& set) {
  CorunSummary summary;
  summary.avg_best_speedup_baseline_a1 = average_best_speedup(set.baseline_a1);
  summary.avg_best_speedup_optimized_a1 =
      average_best_speedup(set.optimized_a1);
  summary.avg_best_speedup_baseline_a2 = average_best_speedup(set.baseline_a2);
  summary.avg_best_speedup_optimized_a2 =
      average_best_speedup(set.optimized_a2);

  // A1-over-A2 ratio of the achieved (best-split) optimized co-run
  // performance, averaged over cases.
  std::vector<double> ratios;
  std::vector<double> cpu_only_ratios;
  for (std::size_t c = 0; c < set.cases.size(); ++c) {
    double best_a1 = 0.0;
    double best_a2 = 0.0;
    for (const auto& a1_point : set.optimized_a1[c].points) {
      best_a1 = std::max(best_a1, a1_point.bandwidth.bytes_per_second);
    }
    for (const auto& a2_point : set.optimized_a2[c].points) {
      best_a2 = std::max(best_a2, a2_point.bandwidth.bytes_per_second);
    }
    ratios.push_back(best_a1 / best_a2);
    const auto& a1_cpu = set.optimized_a1[c].at(1.0);
    const auto& a2_cpu = set.optimized_a2[c].at(1.0);
    cpu_only_ratios.push_back(a2_cpu.bandwidth.bytes_per_second /
                              a1_cpu.bandwidth.bytes_per_second);
  }
  summary.a1_over_a2_optimized = stats::arithmetic_mean(ratios);
  summary.cpu_only_a2_over_a1 = stats::arithmetic_mean(cpu_only_ratios);

  speedup_extrema(set.baseline_a1, set.optimized_a1, summary.fig3_speedup_min,
                  summary.fig3_speedup_max);
  speedup_extrema(set.baseline_a2, set.optimized_a2, summary.fig5_speedup_min,
                  summary.fig5_speedup_max);
  return summary;
}

}  // namespace ghs::core
