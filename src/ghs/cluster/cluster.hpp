// ghs::cluster — the reduction service sharded across a simulated GH200
// fleet. N nodes, each a full serve::ReductionService (admission queue,
// scheduler policy, GPU and Grace CPU, retries/breakers when chaos is on), all
// embedded on ONE shared simulator so the fleet runs as a single
// deterministic discrete-event simulation. A Router decides each job's
// node at its arrival instant; an Interconnect prices the bytes a job
// pays when its data lives on a different node's LPDDR5X.
//
// Cluster-level resilience composes with the per-node machinery from the
// fault PR rather than replacing it:
//
//   spill  — a job refused by a node's admission queue is re-routed to the
//            least-loaded other node (paying the transfer from its data
//            home) before the cluster gives up: per-node backpressure
//            propagates up as cluster-level rejection only when every
//            attempt is refused.
//   steal  — when a node's GPU circuit breaker opens, the jobs sitting in
//            its queue are moved to healthy peers (paying the transfer
//            from the sick node), extending degraded placement across the
//            fleet: the sick node keeps serving what it must on its CPU
//            while peers absorb the backlog.
//
// The membership layer (opt-in via ClusterOptions::crash_plan / drains /
// health) extends resilience to whole-node failure: a
// fault::NodeCrashPlan kills a node's process (devices, queue, in-flight
// launches) at a scheduled instant; a phi-accrual HealthMonitor detects
// the silence and drives alive -> suspect -> dead -> rejoined transitions
// on the fleet's membership::Table; a per-node write-ahead JobJournal
// lets the jobs that died with the node be replayed on surviving peers
// exactly once (late-landing deliveries find their entry gone and are
// suppressed as duplicates); and a scheduled drain empties a node
// gracefully before removing it. See docs/CLUSTERING.md "Failure
// domains".
//
// Every submitted job ends exactly one of three ways at the cluster level
// — served, rejected, or shed — the invariant the chaos tests pin. Note
// that per-node reports still count their local view (a spilled job is a
// rejection on the refusing node and a serve on the rescuer), so per-node
// sums can exceed cluster totals by design.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ghs/cluster/interconnect.hpp"
#include "ghs/cluster/router.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/membership/health.hpp"
#include "ghs/membership/journal.hpp"
#include "ghs/membership/table.hpp"
#include "ghs/serve/service.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/slo/monitor.hpp"
#include "ghs/trace/tracer.hpp"

namespace ghs::cluster {

/// Scheduled graceful drain: at `at`, stop admitting to `node`, flush its
/// queue to peers, and remove it from the fleet. In-flight work on the
/// node completes lame-duck; a node already dead, draining or departed is
/// left alone.
struct DrainSpec {
  int node = 0;
  SimTime at = 0;
};

struct ClusterOptions {
  int nodes = 4;
  RouterPolicy router = RouterPolicy::kLeast;
  /// Per-node scheduler policy name ("fifo" | "sjf" | "bandwidth").
  std::string policy = "fifo";
  /// Template for every node's ServiceOptions. external_sim and node are
  /// overwritten per node; the telemetry sink is shared (node="i" labels
  /// disambiguate); the injector attaches to `fault_node` only — chaos
  /// strikes one machine, the fleet reacts.
  serve::ServiceOptions node;
  int fault_node = 0;
  InterconnectOptions interconnect;
  std::uint64_t router_seed = 0xC105CE12ULL;
  /// Spill-on-reject (see header comment). Off = a node-level rejection
  /// is immediately a cluster-level rejection.
  bool spill = true;
  /// Steal-on-GPU-breaker-open (see header comment).
  bool steal = true;
  /// Whole-node crash schedule (fault::parse_crash_plan). Any entry turns
  /// the membership layer on; empty (the default) leaves every code path
  /// and report byte-identical to a membership-unaware cluster.
  fault::NodeCrashPlan crash_plan;
  /// Scheduled graceful drains; any entry turns the membership layer on.
  std::vector<DrainSpec> drains;
  /// Phi-accrual failure detector riding the shared simulator. Disabled,
  /// crashes are detected instantly at the crash event (zero detection
  /// latency); enabled, detection waits for heartbeats to go quiet and
  /// restarts rejoin only after the warm-up window.
  membership::HealthOptions health;
};

/// Cluster-level accounting for one served job (48 bytes), kept in
/// completion order. `node_arrival` is the delivery instant at the serving
/// node (post transfer); cluster latency is measured from the tenant's
/// original arrival at the front door.
struct ClusterRecord {
  serve::JobId id = 0;
  SimTime original_arrival = 0;
  SimTime node_arrival = 0;
  SimTime completion = 0;
  /// Total inter-node transfer time the job paid (route + spills + steal).
  SimTime transfer = 0;
  int node = 0;
  int spills = 0;
  bool stolen = false;

  SimTime latency() const { return completion - original_arrival; }
};

/// Membership/recovery accounting for one cluster run; serialised (and
/// populated) only when the membership layer was on, so membership-free
/// reports stay byte-identical to pre-membership builds.
struct MembershipReport {
  /// Node-crash events executed / node processes restarted.
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  /// Graceful drains executed / queued jobs flushed to peers by them.
  std::int64_t drains = 0;
  std::int64_t drain_flushed = 0;
  /// Journaled jobs replayed after a death (or recovered from the WAL at
  /// an undetected restart).
  std::int64_t replayed = 0;
  /// In-flight deliveries re-pointed at a live peer because the target
  /// was already declared dead/draining when they landed.
  std::int64_t redirected = 0;
  /// Deliveries dropped because the job's journal entry was already
  /// replayed elsewhere — the exactly-once proof under replay races.
  std::int64_t duplicate_suppressed = 0;
  double replay_gb = 0.0;
  /// Crash-to-declared-dead latencies (zero-latency with the detector
  /// off, heartbeat-quantised with it on).
  std::int64_t detections = 0;
  double detection_mean_ms = 0.0;
  double detection_max_ms = 0.0;
  std::int64_t transitions = 0;
  /// Final membership state per node ("alive"|"suspect"|"dead"|
  /// "draining"|"left").
  std::vector<std::string> final_states;

  void write_json(std::ostream& os) const;
};

struct ClusterReport {
  std::string router;
  std::string policy;
  int nodes = 1;
  std::int64_t submitted = 0;
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  /// Jobs that paid at least one inter-node transfer.
  std::int64_t remote_jobs = 0;
  std::int64_t transfers = 0;
  double transfer_gb = 0.0;
  /// Spill re-routes attempted / jobs that survived because of one.
  std::int64_t spills = 0;
  std::int64_t spilled_saved = 0;
  /// Steal events / jobs moved by them.
  std::int64_t steals = 0;
  std::int64_t stolen_jobs = 0;
  SimTime makespan = 0;
  Bytes bytes_served = 0;
  double throughput_jobs_per_s = 0.0;
  double throughput_gbps = 0.0;
  /// Front-door latency: completion minus original arrival.
  serve::LatencyStats latency;
  /// Jobs routed to each node (first routing decision only).
  std::vector<std::int64_t> routed;
  /// max(routed) / mean(routed); 1 is perfect balance, 0 when idle.
  double imbalance = 0.0;
  std::vector<serve::ServiceReport> node_reports;
  /// Populated (and serialised, as a trailing "membership" key) only when
  /// the membership layer ran.
  bool membership_aware = false;
  MembershipReport membership;

  /// One JSON object, stable key order, deterministic formatting.
  void write_json(std::ostream& os) const;
};

class Cluster {
 public:
  Cluster(serve::ServiceModel& model, ClusterOptions options = {},
          trace::Tracer* tracer = nullptr);

  int nodes() const { return options_.nodes; }
  serve::ReductionService& node(int i);
  const serve::ReductionService& node(int i) const;
  const Router& router() const { return router_; }
  /// Null on single-node fleets.
  Interconnect* interconnect() { return interconnect_.get(); }
  /// The shared fleet clock.
  sim::Simulator& sim() { return sim_; }

  /// Schedules a whole workload through the front door, chained like the
  /// service's own submit_all (serve::chain_arrivals).
  void submit_all(std::vector<serve::Job> jobs);

  /// Drains the shared event queue: routing, transfers, service, spills,
  /// and steals all run to completion.
  void run();

  /// Every served job, in completion order. The report's latency and the
  /// SLO feed read these; bytes served are summed as jobs complete.
  const std::vector<ClusterRecord>& records() const { return records_; }
  /// Cluster-level terminal rejections/sheds and their instants.
  const std::vector<serve::Job>& rejected_jobs() const { return rejected_; }
  const std::vector<SimTime>& rejected_times() const { return rejected_at_; }
  const std::vector<serve::Job>& shed_jobs() const { return shed_; }
  const std::vector<SimTime>& shed_times() const { return shed_at_; }

  ClusterReport report() const;

  /// Telemetry-side totals the profile::CostLedger reconciles against:
  /// every node's device busy time and unified bytes, plus the
  /// interconnect's moved bytes and the journal's replayed bytes.
  profile::ConservationTotals conservation_totals() const;

  /// Feeds an SLO monitor with cluster-level outcomes: completions judged
  /// on front-door latency, cluster rejections/sheds as bad availability
  /// samples.
  void feed_slo(slo::Monitor& monitor) const;

  /// Every node's liveness state; all nodes stay alive unless the
  /// membership layer runs.
  const membership::Table& membership_table() const { return table_; }
  /// Null when the membership layer is off.
  const membership::JobJournal* journal() const { return journal_.get(); }

 private:
  struct JobMeta {
    SimTime original_arrival = 0;
    SimTime transfer = 0;
    int spills = 0;
    bool stolen = false;
    /// Journaled deliveries so far; each transfer carries the count it
    /// was started under, so one that lands after a newer delivery (a
    /// replay) is recognised as superseded.
    std::uint32_t deliveries = 0;
  };
  /// Instantaneous load signal: queue depth + busy devices + in-flight
  /// deliveries (transfers already committed to the node).
  std::size_t load(int node) const;
  std::vector<std::size_t> all_loads() const;
  void route(serve::Job job);
  /// Hands the job to `target`, paying `transfer_src`->target transfer
  /// first when transfer_src >= 0 and differs from target. `phase` names
  /// the move in the profile ledger (route/spill transfers vs steals vs
  /// drain flushes) so attributed bytes still sum to the interconnect's
  /// transfer counter exactly.
  void deliver(serve::Job job, int target, int transfer_src,
               profile::Phase phase = profile::Phase::kTransfer);
  /// `generation` is the delivery count the hand-off was started under
  /// (0 without the membership layer).
  void submit_to(serve::Job job, int target, std::uint32_t generation);
  void finish_reject(const serve::Job& job, SimTime at);
  void steal_from(int sick, SimTime at);
  /// Least-loaded node the membership table still routes to, excluding
  /// `exclude` (-1 excludes nobody); -1 when no live node remains.
  int pick_live_target(int exclude) const;
  void do_crash(int node);
  void do_restart(int node);
  void do_drain(int node);
  /// Replays `node`'s open journal entries: onto live peers after a death
  /// (onto_self=false, transfers priced from the dead node's memory), or
  /// back onto the node itself when its process restarts before the
  /// detector ever declared it dead (onto_self=true — local WAL recovery,
  /// no transfer).
  void replay_open(int node, SimTime at, bool onto_self);
  void on_membership_transition(const membership::Transition& t);
  void journal_commit(int node, serve::JobId id);
  void membership_flight(SimTime at, const char* kind, int node,
                         const std::string& detail);

  serve::ServiceModel& model_;
  ClusterOptions options_;
  trace::Tracer* tracer_;
  /// Aliases options_.node.profile (null when profiling is off); the
  /// cluster charges its interconnect/journal bytes here, the nodes their
  /// launch time.
  profile::Recorder* recorder_ = nullptr;
  /// Shared fleet clock.
  sim::Simulator sim_;
  std::unique_ptr<Interconnect> interconnect_;
  Router router_;
  std::vector<std::unique_ptr<serve::ReductionService>> nodes_;
  std::unordered_map<serve::JobId, JobMeta> meta_;
  std::vector<ClusterRecord> records_;
  /// Bytes of the served jobs, accumulated at completion.
  Bytes bytes_served_ = 0;
  std::vector<serve::Job> rejected_;
  std::vector<SimTime> rejected_at_;
  std::vector<serve::Job> shed_;
  std::vector<SimTime> shed_at_;
  std::vector<std::int64_t> routed_;
  std::vector<std::size_t> pending_;
  std::int64_t submitted_ = 0;
  /// Front-door makespan bounds: first routed arrival, last completion.
  SimTime first_arrival_ = -1;
  SimTime last_completion_ = 0;
  std::int64_t remote_jobs_ = 0;
  std::int64_t spills_ = 0;
  std::int64_t spilled_saved_ = 0;
  std::int64_t steals_ = 0;
  std::int64_t stolen_jobs_ = 0;
  /// Spill, steal and routing consult the table on every run. The rest of
  /// the membership layer is null/empty when membership_on_ is false, so
  /// a membership-free run touches none of it.
  membership::Table table_;
  bool membership_on_ = false;
  std::unique_ptr<membership::JobJournal> journal_;
  std::unique_ptr<membership::HealthMonitor> monitor_;
  /// Ground truth per node: is the process up? (The table holds the
  /// *detected* state, which lags this during detection and warm-up.)
  std::vector<char> up_;
  std::vector<SimTime> crashed_at_;
  std::int64_t crashes_ = 0;
  std::int64_t restarts_ = 0;
  std::int64_t drains_ = 0;
  std::int64_t drain_flushed_ = 0;
  std::int64_t replayed_ = 0;
  std::int64_t redirected_ = 0;
  std::int64_t dup_suppressed_ = 0;
  std::int64_t replay_bytes_ = 0;
  /// Exact integer twin of the interconnect's bytes_moved() (a double);
  /// the telemetry side of the ledger's transfer-byte conservation.
  Bytes transfer_bytes_total_ = 0;
  std::vector<double> detection_ms_;
  telemetry::FlightRecorder* flight_ = nullptr;
  telemetry::Counter* m_submitted_ = nullptr;
  telemetry::Counter* m_served_ = nullptr;
  telemetry::Counter* m_rejected_ = nullptr;
  telemetry::Counter* m_shed_ = nullptr;
  telemetry::Counter* m_transfers_ = nullptr;
  telemetry::Counter* m_transfer_bytes_ = nullptr;
  telemetry::Counter* m_spills_ = nullptr;
  telemetry::Counter* m_steals_ = nullptr;
  telemetry::Histogram* m_latency_ms_ = nullptr;
  telemetry::Counter* m_replayed_ = nullptr;
  telemetry::Counter* m_dup_suppressed_ = nullptr;
  telemetry::Counter* m_replay_bytes_ = nullptr;
  telemetry::Counter* m_transitions_ = nullptr;
  std::vector<telemetry::Gauge*> m_node_state_;
};

}  // namespace ghs::cluster
