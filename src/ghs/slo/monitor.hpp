// SLO monitoring over a served workload: declarative objectives
// (availability, latency-quantile targets) evaluated against the per-job
// outcomes of a run in simulated time — one feed reads the serve::Outcomes
// log a service and a fleet both keep — with multi-window error-budget
// burn-rate alerting in the style of the SRE workbook — a fast pair of
// windows catches sharp burns (the 5m+1h rule), a slow pair catches
// sustained slow leaks (the 6h+3d rule), both scaled to simulator time
// where a whole serving campaign lasts milliseconds.
//
// Everything is deterministic: samples are (sim-time, good/bad) pairs, the
// evaluation scans them in time order, and the report serialises with
// fixed formatting, so two runs of the same (plan, seed) produce
// byte-identical SLO reports.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ghs/serve/job.hpp"
#include "ghs/util/units.hpp"

namespace ghs::slo {

enum class ObjectiveKind : std::uint8_t {
  /// Fraction of requests that terminate served (not rejected, not shed).
  kAvailability,
  /// Fraction of served requests completing within `threshold_ms`; a
  /// target of 0.99 with threshold 1 ms reads "p99 latency <= 1 ms".
  kLatencyQuantile,
};

const char* objective_kind_name(ObjectiveKind kind);

struct Objective {
  std::string name;
  ObjectiveKind kind = ObjectiveKind::kAvailability;
  /// Required good fraction (the SLO target), e.g. 0.999.
  double target = 0.999;
  /// Latency bound judged per sample (kLatencyQuantile only).
  double threshold_ms = 1.0;
};

/// One multi-window burn-rate rule: alert while the error budget burns
/// faster than `threshold` over BOTH windows (the long window confirms the
/// burn is real, the short window confirms it is still happening).
struct BurnRateRule {
  std::string severity;  // "fast" | "slow" (free-form for custom rules)
  SimTime long_window = 0;
  SimTime short_window = 0;
  double threshold = 1.0;
};

/// The sim-time analogue of the SRE workbook's 5m+1h @ 14.4x and
/// 6h+3d @ 1x pairs, scaled to millisecond-long campaigns.
std::vector<BurnRateRule> default_burn_rules();

struct MonitorOptions {
  std::vector<BurnRateRule> rules = default_burn_rules();
};

/// One alert episode: the instant both windows first exceeded the rule's
/// burn threshold, with the burn rates observed at that instant.
struct Alert {
  std::string objective;
  std::string severity;
  SimTime at = 0;
  double burn_long = 0.0;
  double burn_short = 0.0;
};

struct BurnReport {
  std::string severity;
  SimTime long_window = 0;
  SimTime short_window = 0;
  double threshold = 0.0;
  /// Peak long-window burn rate seen at any sample instant.
  double peak_burn = 0.0;
  /// Alert episodes (distinct entries into the alerting state).
  std::int64_t alerts = 0;
  /// First alert instant; -1 when the rule never fired.
  SimTime first_alert = -1;
};

struct ObjectiveReport {
  std::string name;
  ObjectiveKind kind = ObjectiveKind::kAvailability;
  double target = 0.0;
  double threshold_ms = 0.0;
  std::int64_t samples = 0;
  std::int64_t good = 0;
  std::int64_t bad = 0;
  /// good / samples over the whole run (1 when no samples).
  double compliance = 1.0;
  /// Whole-run burn rate: bad-fraction / (1 - target). > 1 means the run
  /// as a whole blew its budget.
  double budget_burn = 0.0;
  bool met = true;
  std::vector<BurnReport> burn;
};

struct Report {
  std::vector<ObjectiveReport> objectives;
  std::vector<Alert> alerts;  // across objectives, time order

  std::int64_t total_alerts() const {
    return static_cast<std::int64_t>(alerts.size());
  }
  /// One JSON object, stable key order, fixed number formatting.
  void write_json(std::ostream& os) const;
};

class Monitor {
 public:
  explicit Monitor(std::vector<Objective> objectives,
                   MonitorOptions options = {});

  const std::vector<Objective>& objectives() const { return objectives_; }

  /// Records one judged sample for objective `index`.
  void record(std::size_t index, SimTime at, bool good);

  /// Judges a latency value against a kLatencyQuantile objective's
  /// threshold (good for kAvailability objectives regardless of value).
  void record_latency(std::size_t index, SimTime at, double latency_ms);

  /// Feeds every objective from one completed run's outcome log, a
  /// service's or a fleet's: completions are good availability samples
  /// and judged latency samples; rejected and shed jobs are bad
  /// availability samples at their drop instants.
  void feed(const serve::Outcomes& outcomes);

  /// Evaluates objectives and burn-rate rules over everything recorded.
  Report evaluate() const;

 private:
  struct Sample {
    SimTime at = 0;
    bool good = true;
  };

  std::vector<Objective> objectives_;
  MonitorOptions options_;
  std::vector<std::vector<Sample>> samples_;  // per objective
};

}  // namespace ghs::slo
