#include "ghs/cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "ghs/serve/policy.hpp"
#include "ghs/util/error.hpp"
#include "ghs/util/strings.hpp"

namespace ghs::cluster {

void MembershipReport::write_json(std::ostream& os) const {
  os << "{\"crashes\":" << crashes << ",\"restarts\":" << restarts
     << ",\"drains\":" << drains << ",\"drain_flushed\":" << drain_flushed
     << ",\"replayed\":" << replayed << ",\"redirected\":" << redirected
     << ",\"duplicate_suppressed\":" << duplicate_suppressed
     << ",\"replay_gb\":" << format_fixed(replay_gb, 6)
     << ",\"detections\":" << detections
     << ",\"detection_mean_ms\":" << format_fixed(detection_mean_ms, 6)
     << ",\"detection_max_ms\":" << format_fixed(detection_max_ms, 6)
     << ",\"transitions\":" << transitions << ",\"final_states\":[";
  for (std::size_t i = 0; i < final_states.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\"" << final_states[i] << "\"";
  }
  os << "]}";
}

void ClusterReport::write_json(std::ostream& os) const {
  os << "{\"router\":\"" << router << "\",\"policy\":\"" << policy
     << "\",\"nodes\":" << nodes << ",\"submitted\":" << submitted
     << ",\"served\":" << served << ",\"rejected\":" << rejected
     << ",\"shed\":" << shed << ",\"remote_jobs\":" << remote_jobs
     << ",\"transfers\":" << transfers
     << ",\"transfer_gb\":" << format_fixed(transfer_gb, 6)
     << ",\"spills\":" << spills << ",\"spilled_saved\":" << spilled_saved
     << ",\"steals\":" << steals << ",\"stolen_jobs\":" << stolen_jobs
     << ",\"makespan_ms\":" << format_fixed(to_millis(makespan), 6)
     << ",\"bytes_served\":" << bytes_served
     << ",\"throughput_jobs_per_s\":"
     << format_fixed(throughput_jobs_per_s, 6)
     << ",\"throughput_gbps\":" << format_fixed(throughput_gbps, 6) << ",";
  serve::write_latency_json(os, "latency", latency);
  os << ",\"routed\":[";
  for (std::size_t i = 0; i < routed.size(); ++i) {
    os << (i == 0 ? "" : ",") << routed[i];
  }
  os << "],\"imbalance\":" << format_fixed(imbalance, 6)
     << ",\"node_reports\":[";
  for (std::size_t i = 0; i < node_reports.size(); ++i) {
    if (i != 0) os << ",";
    node_reports[i].write_json(os);
  }
  os << "]";
  // Trailing key so a membership-off report is byte-identical to the
  // pre-membership format (and strip-suffix comparable when on).
  if (membership_aware) {
    os << ",\"membership\":";
    membership.write_json(os);
  }
  os << "}";
}

Cluster::Cluster(serve::ServiceModel& model, ClusterOptions options,
                 trace::Tracer* tracer)
    : model_(model),
      options_(std::move(options)),
      tracer_(tracer),
      router_(options_.router, options_.router_seed),
      table_(options_.nodes) {
  GHS_REQUIRE(options_.fault_node >= 0 && options_.fault_node < options_.nodes,
              "fault_node=" << options_.fault_node);
  membership_on_ = options_.health.enabled || !options_.crash_plan.empty() ||
                   !options_.drains.empty();
  for (const auto& crash : options_.crash_plan.crashes) {
    GHS_REQUIRE(crash.node >= 0 && crash.node < options_.nodes,
                "crash plan targets node " << crash.node << " of a "
                                           << options_.nodes << "-node fleet");
  }
  for (const auto& spec : options_.drains) {
    GHS_REQUIRE(spec.node >= 0 && spec.node < options_.nodes,
                "drain targets node " << spec.node << " of a "
                                      << options_.nodes << "-node fleet");
  }

  if (options_.nodes > 1) {
    interconnect_ = std::make_unique<Interconnect>(sim_, options_.nodes,
                                                   options_.interconnect);
  }
  routed_.assign(static_cast<std::size_t>(options_.nodes), 0);
  pending_.assign(static_cast<std::size_t>(options_.nodes), 0);

  recorder_ = options_.node.profile;
  for (int i = 0; i < options_.nodes; ++i) {
    serve::ServiceOptions node_options = options_.node;
    node_options.external_sim = &sim_;
    node_options.node = i;
    if (i != options_.fault_node) node_options.injector = nullptr;
    nodes_.push_back(std::make_unique<serve::ReductionService>(
        serve::make_policy(options_.policy, model_), model_, node_options,
        tracer_));
    router_.add_node(i);
  }
  for (int i = 0; i < options_.nodes; ++i) {
    serve::ReductionService& svc = *nodes_[static_cast<std::size_t>(i)];
    svc.set_on_reject([this, i](const serve::Job& job, SimTime at) {
      auto it = meta_.find(job.id);
      GHS_CHECK(it != meta_.end(), "reject for unrouted job " << job.id);
      // The job is leaving node i (to a peer or to a terminal reject);
      // its write-ahead entry there is settled either way.
      journal_commit(i, job.id);
      if (options_.spill && it->second.spills < options_.nodes - 1) {
        // Spill only onto nodes the table still routes to; a fleet with no
        // live peer rejects instead.
        const int target = pick_live_target(i);
        if (target >= 0) {
          ++it->second.spills;
          ++spills_;
          if (m_spills_ != nullptr) m_spills_->inc();
          if (flight_ != nullptr) {
            flight_->record(at, "cluster", "spill",
                            "job " + std::to_string(job.id) + " off node " +
                                std::to_string(i));
          }
          deliver(job, target, job.source_node);
          return;
        }
      }
      finish_reject(job, at);
    });
    svc.set_on_shed([this, i](const serve::Job& job, SimTime at) {
      auto it = meta_.find(job.id);
      GHS_CHECK(it != meta_.end(), "shed for unrouted job " << job.id);
      journal_commit(i, job.id);
      meta_.erase(it);
      shed_.push_back(job);
      shed_at_.push_back(at);
      if (m_shed_ != nullptr) m_shed_->inc();
    });
    svc.set_on_complete([this, i](const serve::JobRecord& record) {
      auto it = meta_.find(record.job.id);
      GHS_CHECK(it != meta_.end(),
                "completion for unrouted job " << record.job.id);
      journal_commit(i, record.job.id);
      const JobMeta& meta = it->second;
      ClusterRecord cr;
      cr.id = record.job.id;
      cr.original_arrival = meta.original_arrival;
      cr.node_arrival = record.job.arrival;
      cr.completion = record.completion;
      cr.transfer = meta.transfer;
      cr.node = i;
      cr.spills = meta.spills;
      cr.stolen = meta.stolen;
      last_completion_ = std::max(last_completion_, record.completion);
      bytes_served_ += record.job.bytes();
      if (meta.spills > 0) ++spilled_saved_;
      records_.push_back(cr);
      meta_.erase(it);
      if (m_served_ != nullptr) m_served_->inc();
      if (m_latency_ms_ != nullptr) {
        m_latency_ms_->observe(to_millis(cr.latency()));
      }
    });
    svc.set_on_breaker_transition(
        [this, i](serve::Placement device, fault::BreakerState,
                  fault::BreakerState to, SimTime at) {
          if (!options_.steal || options_.nodes < 2) return;
          if (device != serve::Placement::kGpu ||
              to != fault::BreakerState::kOpen) {
            return;
          }
          // Steal as a fresh event so the node's dispatch loop (which may
          // be mid-iteration over its queue) fully unwinds first.
          sim_.schedule_after(0, [this, i, at] { steal_from(i, at); });
        });
  }

  flight_ = options_.node.telemetry.flight;
  if (options_.node.telemetry.metrics != nullptr) {
    telemetry::Registry& r = *options_.node.telemetry.metrics;
    const telemetry::Labels router_label = {
        {"router", router_policy_name(options_.router)}};
    m_submitted_ = &r.counter("ghs_cluster_jobs_submitted_total", router_label,
                              "Jobs submitted to the cluster front door");
    m_served_ = &r.counter("ghs_cluster_jobs_served_total", router_label,
                           "Jobs served by some node of the fleet");
    m_rejected_ =
        &r.counter("ghs_cluster_jobs_rejected_total", router_label,
                   "Jobs refused by every spill attempt (cluster-level)");
    m_shed_ = &r.counter("ghs_cluster_jobs_shed_total", router_label,
                         "Jobs shed by a node's retry machinery");
    m_transfers_ = &r.counter("ghs_cluster_transfers_total", router_label,
                              "Inter-node transfers started");
    m_transfer_bytes_ =
        &r.counter("ghs_cluster_transfer_bytes_total", router_label,
                   "Bytes moved between nodes");
    m_spills_ = &r.counter("ghs_cluster_spills_total", router_label,
                           "Spill re-routes after a node-level rejection");
    m_steals_ = &r.counter("ghs_cluster_steals_total", router_label,
                           "Queue-steal events (GPU breaker opened)");
    m_latency_ms_ = &r.histogram(
        "ghs_cluster_latency_ms", telemetry::default_latency_buckets_ms(),
        router_label, "Front-door arrival-to-completion latency");
  }

  if (!membership_on_) return;
  journal_ = std::make_unique<membership::JobJournal>(options_.nodes);
  up_.assign(static_cast<std::size_t>(options_.nodes), 1);
  crashed_at_.assign(static_cast<std::size_t>(options_.nodes), -1);
  if (options_.node.telemetry.metrics != nullptr) {
    // Membership instruments only exist on membership runs, keeping every
    // other snapshot's byte stream unchanged.
    telemetry::Registry& r = *options_.node.telemetry.metrics;
    m_replayed_ =
        &r.counter("ghs_membership_replayed_jobs_total", {},
                   "Journaled jobs replayed after a node death or restart");
    m_dup_suppressed_ = &r.counter(
        "ghs_membership_duplicate_suppressed_total", {},
        "Deliveries dropped because their journal entry was already "
        "replayed elsewhere");
    m_replay_bytes_ = &r.counter("ghs_membership_replay_bytes_total", {},
                                 "Bytes re-shipped by journal replay");
    m_transitions_ = &r.counter("ghs_membership_transitions_total", {},
                                "Membership state transitions");
    m_node_state_.resize(static_cast<std::size_t>(options_.nodes));
    for (int i = 0; i < options_.nodes; ++i) {
      m_node_state_[static_cast<std::size_t>(i)] = &r.gauge(
          "ghs_membership_node_state", {{"node", std::to_string(i)}},
          "Membership state (0 alive, 1 suspect, 2 dead, 3 draining, "
          "4 left)");
    }
  }
  table_.set_on_transition([this](const membership::Transition& t) {
    on_membership_transition(t);
  });
  if (options_.health.enabled) {
    monitor_ = std::make_unique<membership::HealthMonitor>(
        sim_, table_, options_.health,
        [this](int i) { return up_[static_cast<std::size_t>(i)] != 0; });
    monitor_->start();
  }
  for (const auto& crash : options_.crash_plan.crashes) {
    sim_.schedule_at(crash.at,
                     [this, node = crash.node] { do_crash(node); });
    if (crash.restart_at > 0) {
      sim_.schedule_at(crash.restart_at,
                       [this, node = crash.node] { do_restart(node); });
    }
  }
  for (const auto& spec : options_.drains) {
    sim_.schedule_at(spec.at, [this, node = spec.node] { do_drain(node); });
  }
}

serve::ReductionService& Cluster::node(int i) {
  GHS_REQUIRE(i >= 0 && i < options_.nodes, "node " << i);
  return *nodes_[static_cast<std::size_t>(i)];
}

const serve::ReductionService& Cluster::node(int i) const {
  GHS_REQUIRE(i >= 0 && i < options_.nodes, "node " << i);
  return *nodes_[static_cast<std::size_t>(i)];
}

std::size_t Cluster::load(int node) const {
  const serve::ReductionService& svc = *nodes_[static_cast<std::size_t>(node)];
  std::size_t load = svc.queue().size() + pending_[static_cast<std::size_t>(node)];
  if (svc.busy(serve::Placement::kGpu)) ++load;
  if (svc.busy(serve::Placement::kCpu)) ++load;
  return load;
}

std::vector<std::size_t> Cluster::all_loads() const {
  std::vector<std::size_t> loads(static_cast<std::size_t>(options_.nodes));
  for (int i = 0; i < options_.nodes; ++i) {
    loads[static_cast<std::size_t>(i)] = load(i);
  }
  return loads;
}

void Cluster::submit_all(std::vector<serve::Job> jobs) {
  if (jobs.empty()) return;
  const auto count = static_cast<std::int64_t>(jobs.size());
  serve::chain_arrivals(sim_, std::move(jobs),
                        [this](const serve::Job& job) { route(job); });
  submitted_ += count;
  if (m_submitted_ != nullptr) m_submitted_->inc(count);
}

void Cluster::route(serve::Job job) {
  int target = router_.pick(job, all_loads());
  // The hash ring already excludes departed nodes; the load-based picks
  // see every index, so correct a choice the membership table has since
  // declared dead/draining/left. (A crashed-but-undetected node is still
  // "serving" here: the job bounces off it and spills — that bounce is
  // the real cost of detection latency.)
  if (!table_.serving(target)) {
    target = pick_live_target(-1);
  }
  if (first_arrival_ < 0 || job.arrival < first_arrival_) {
    first_arrival_ = job.arrival;
  }
  JobMeta meta;
  meta.original_arrival = job.arrival;
  meta_.emplace(job.id, meta);
  if (target < 0) {
    // No live node left to take the job.
    finish_reject(job, sim_.now());
    return;
  }
  ++routed_[static_cast<std::size_t>(target)];
  const int home = job.source_node;
  deliver(std::move(job), target, home);
}

void Cluster::deliver(serve::Job job, int target, int transfer_src,
                      profile::Phase phase) {
  GHS_REQUIRE(target >= 0 && target < options_.nodes, "deliver to " << target);
  auto it = meta_.find(job.id);
  GHS_CHECK(it != meta_.end(), "delivery for unrouted job " << job.id);
  // Write-ahead: the journal owns the job from the moment the cluster
  // commits to this delivery, before any transfer time elapses — so a
  // crash anywhere downstream can always replay it. The new generation
  // marks every delivery of this job still in flight as superseded.
  std::uint32_t generation = 0;
  if (journal_ != nullptr) {
    journal_->append(target, job);
    generation = ++it->second.deliveries;
  }
  ++pending_[static_cast<std::size_t>(target)];
  if (interconnect_ == nullptr || transfer_src < 0 ||
      transfer_src == target) {
    submit_to(std::move(job), target, generation);
    return;
  }
  if (it->second.transfer == 0) {
    ++remote_jobs_;
  }
  const Bytes bytes = job.bytes();
  transfer_bytes_total_ += bytes;
  if (m_transfers_ != nullptr) m_transfers_->inc();
  if (m_transfer_bytes_ != nullptr) m_transfer_bytes_->inc(bytes);
  if (recorder_ != nullptr) {
    // Charged exactly where the interconnect counter increments, so the
    // ledger's transfer+steal+drain bytes reconcile against bytes_moved().
    recorder_->on_bytes(static_cast<std::int16_t>(target),
                        {job.tenant, static_cast<std::uint8_t>(job.case_id),
                         job.elements, bytes, job.enqueued},
                        phase, bytes);
  }
  const SimTime begin = sim_.now();
  const std::string label = "job" + std::to_string(job.id) + " node" +
                            std::to_string(transfer_src) + "->node" +
                            std::to_string(target);
  interconnect_->transfer(
      transfer_src, target, bytes,
      [this, job = std::move(job), target, transfer_src, begin,
       generation]() mutable {
        const SimTime end = sim_.now();
        auto meta_it = meta_.find(job.id);
        if (meta_it != meta_.end()) {
          meta_it->second.transfer += end - begin;
        } else {
          // Meta may only be gone when the journal replayed this job and
          // the replayed copy already finished — submit_to will drop the
          // late copy. Anything else is a routing bug.
          GHS_CHECK(journal_ != nullptr && !journal_->is_open(target, job.id),
                    "transfer landed for unrouted job " << job.id);
        }
        if (tracer_ != nullptr) {
          tracer_->record(trace::Track::kServer, "cluster.xfer", begin, end,
                          "node" + std::to_string(transfer_src) + "->node" +
                              std::to_string(target) + " job " +
                              std::to_string(job.id));
        }
        submit_to(std::move(job), target, generation);
      },
      label);
}

void Cluster::submit_to(serve::Job job, int target,
                        std::uint32_t generation) {
  --pending_[static_cast<std::size_t>(target)];
  if (journal_ != nullptr) {
    if (!journal_->is_open(target, job.id) ||
        meta_.at(job.id).deliveries != generation) {
      // The journal replayed this job — onto a peer, or locally onto this
      // very node after a restart — while the delivery was still in
      // flight; dropping the late copy here is what makes the replay
      // exactly-once.
      ++dup_suppressed_;
      if (m_dup_suppressed_ != nullptr) m_dup_suppressed_->inc();
      membership_flight(sim_.now(), "duplicate", target,
                        "job " + std::to_string(job.id) +
                            " landed after replay, suppressed");
      return;
    }
    if (!table_.serving(target)) {
      // Landed on a node the table has since declared dead/draining/left:
      // re-point at a live peer, priced from wherever the data was headed.
      journal_->commit(target, job.id);
      const int next = pick_live_target(target);
      ++redirected_;
      membership_flight(sim_.now(), "redirect", target,
                        "job " + std::to_string(job.id) + " re-pointed to " +
                            (next < 0 ? std::string("nowhere")
                                      : "node " + std::to_string(next)));
      if (next < 0) {
        finish_reject(job, sim_.now());
        return;
      }
      deliver(std::move(job), next, target);
      return;
    }
  }
  job.arrival = sim_.now();
  nodes_[static_cast<std::size_t>(target)]->submit(job);
}

void Cluster::finish_reject(const serve::Job& job, SimTime at) {
  meta_.erase(job.id);
  rejected_.push_back(job);
  rejected_at_.push_back(at);
  if (m_rejected_ != nullptr) m_rejected_->inc();
  if (flight_ != nullptr) {
    flight_->record(at, "cluster", "reject",
                    "job " + std::to_string(job.id) + " refused everywhere");
  }
}

void Cluster::steal_from(int sick, SimTime at) {
  serve::ReductionService& svc = *nodes_[static_cast<std::size_t>(sick)];
  if (svc.breaker(serve::Placement::kGpu).state() !=
      fault::BreakerState::kOpen) {
    return;  // recovered before the steal event ran
  }
  std::vector<serve::Job> jobs =
      svc.steal_queued(std::numeric_limits<std::size_t>::max());
  if (jobs.empty()) return;
  ++steals_;
  if (m_steals_ != nullptr) m_steals_->inc();
  if (flight_ != nullptr) {
    flight_->record(at, "cluster", "steal",
                    std::to_string(jobs.size()) + " job(s) off node " +
                        std::to_string(sick));
  }
  for (auto& job : jobs) {
    auto it = meta_.find(job.id);
    GHS_CHECK(it != meta_.end(), "stole unrouted job " << job.id);
    it->second.stolen = true;
    ++stolen_jobs_;
    journal_commit(sick, job.id);
    const int target = pick_live_target(sick);
    if (target < 0) {
      finish_reject(job, at);
      continue;
    }
    // The queued context lives on the sick node, so the move is priced
    // from there regardless of where the bytes originally came from.
    deliver(std::move(job), target, sick, profile::Phase::kSteal);
  }
}

int Cluster::pick_live_target(int exclude) const {
  int best = -1;
  std::size_t best_load = 0;
  for (int i = 0; i < options_.nodes; ++i) {
    if (i == exclude) continue;
    if (!table_.serving(i)) continue;
    const std::size_t candidate = load(i);
    if (best < 0 || candidate < best_load) {
      best = i;
      best_load = candidate;
    }
  }
  return best;
}

void Cluster::journal_commit(int node, serve::JobId id) {
  if (journal_ != nullptr) journal_->commit(node, id);
}

void Cluster::membership_flight(SimTime at, const char* kind, int node,
                                const std::string& detail) {
  telemetry::record_labeled_event(flight_, at, "membership", kind,
                                  {{"node", std::to_string(node)}}, detail);
}

void Cluster::do_crash(int node) {
  const auto n = static_cast<std::size_t>(node);
  if (up_[n] == 0) return;  // already down
  up_[n] = 0;
  crashed_at_[n] = sim_.now();
  ++crashes_;
  nodes_[n]->crash();
  membership_flight(sim_.now(), "crash", node, "node process died");
  if (tracer_ != nullptr) {
    tracer_->mark(trace::Track::kServer,
                  "membership.crash node " + std::to_string(node),
                  sim_.now());
  }
  if (monitor_ == nullptr &&
      table_.state(node) != membership::NodeState::kDead) {
    // No detector: the crash is visible instantly (zero detection
    // latency), which is the baseline the phi-accrual numbers compare to.
    table_.transition(node, membership::NodeState::kDead, sim_.now(),
                       "crash (no detector)");
  }
}

void Cluster::do_restart(int node) {
  const auto n = static_cast<std::size_t>(node);
  if (up_[n] != 0) return;  // never crashed, or already restarted
  up_[n] = 1;
  crashed_at_[n] = -1;
  ++restarts_;
  nodes_[n]->restore();
  membership_flight(sim_.now(), "restart", node,
                    "node process restarted (warm-up begins)");
  if (tracer_ != nullptr) {
    tracer_->mark(trace::Track::kServer,
                  "membership.restart node " + std::to_string(node),
                  sim_.now());
  }
  if (table_.state(node) == membership::NodeState::kDead) {
    // Detected death: the open entries were already replayed onto peers.
    // With a detector the node rejoins after its warm-up window; without
    // one the restart is visible instantly, like the crash was.
    if (monitor_ == nullptr) {
      table_.transition(node, membership::NodeState::kAlive, sim_.now(),
                         "restart (no detector)");
    }
  } else {
    // The process bounced before the detector ever declared it dead, so
    // nobody replayed for it: the restarted node recovers its own
    // write-ahead journal locally.
    replay_open(node, sim_.now(), /*onto_self=*/true);
  }
}

void Cluster::do_drain(int node) {
  const membership::NodeState state = table_.state(node);
  if (state != membership::NodeState::kAlive &&
      state != membership::NodeState::kSuspect) {
    return;  // already dead, draining, or departed
  }
  if (up_[static_cast<std::size_t>(node)] == 0) {
    return;  // crashed but undetected: the detector owns this node's fate
  }
  ++drains_;
  table_.transition(node, membership::NodeState::kDraining, sim_.now(),
                     "drain requested");
  std::vector<serve::Job> jobs = nodes_[static_cast<std::size_t>(node)]
                                     ->steal_queued(
                                         std::numeric_limits<std::size_t>::max());
  for (auto& job : jobs) {
    journal_commit(node, job.id);
    ++drain_flushed_;
    const int target = pick_live_target(node);
    if (target < 0) {
      finish_reject(job, sim_.now());
      continue;
    }
    deliver(std::move(job), target, node, profile::Phase::kDrain);
  }
  // In-flight launches finish lame-duck (their completions still count);
  // in-flight deliveries land on a non-serving node and get redirected.
  table_.transition(node, membership::NodeState::kLeft, sim_.now(),
                     "drained, " + std::to_string(jobs.size()) +
                         " queued job(s) flushed");
  membership_flight(sim_.now(), "drain", node,
                    std::to_string(jobs.size()) +
                        " queued job(s) flushed to peers");
}

void Cluster::replay_open(int node, SimTime at, bool onto_self) {
  std::vector<serve::Job> jobs = journal_->take_open(node);
  if (jobs.empty()) return;
  membership_flight(at, "replay", node,
                    std::to_string(jobs.size()) + " journaled job(s) " +
                        (onto_self ? "recovered locally" :
                                     "replayed on peers"));
  for (auto& job : jobs) {
    GHS_CHECK(meta_.find(job.id) != meta_.end(),
              "journal replays unrouted job " << job.id);
    ++replayed_;
    replay_bytes_ += job.bytes();
    if (m_replayed_ != nullptr) m_replayed_->inc();
    if (m_replay_bytes_ != nullptr) m_replay_bytes_->inc(job.bytes());
    if (recorder_ != nullptr) {
      // The journal replay itself; the deliver below prices any resulting
      // interconnect move separately as a plain transfer.
      recorder_->on_bytes(static_cast<std::int16_t>(node),
                          {job.tenant,
                           static_cast<std::uint8_t>(job.case_id),
                           job.elements, job.bytes(), job.enqueued},
                          profile::Phase::kReplay, job.bytes());
    }
    if (onto_self) {
      // Local WAL recovery on the restarted process: no transfer, the
      // data never left the node.
      deliver(std::move(job), node, -1);
      continue;
    }
    const int target = pick_live_target(node);
    if (target < 0) {
      finish_reject(job, at);
      continue;
    }
    // Priced from the job's data home when it has one, else from the dead
    // node — its journal (and the job bytes) survive in NVLink-reachable
    // LPDDR5X even though the process is gone.
    const int src = job.source_node >= 0 ? job.source_node : node;
    deliver(std::move(job), target, src);
  }
}

void Cluster::on_membership_transition(const membership::Transition& t) {
  if (m_transitions_ != nullptr) m_transitions_->inc();
  if (!m_node_state_.empty()) {
    m_node_state_[static_cast<std::size_t>(t.node)]->set(
        static_cast<double>(t.to));
  }
  membership_flight(t.at, "transition", t.node,
                    std::string(membership::node_state_name(t.from)) +
                        " -> " + membership::node_state_name(t.to) + " (" +
                        t.reason + ")");
  if (tracer_ != nullptr) {
    tracer_->mark(trace::Track::kServer,
                  "membership node " + std::to_string(t.node) + " " +
                      membership::node_state_name(t.to),
                  t.at);
  }
  switch (t.to) {
    case membership::NodeState::kDead:
      router_.remove_node(t.node);
      if (crashed_at_[static_cast<std::size_t>(t.node)] >= 0) {
        detection_ms_.push_back(
            to_millis(t.at - crashed_at_[static_cast<std::size_t>(t.node)]));
      }
      replay_open(t.node, t.at, /*onto_self=*/false);
      break;
    case membership::NodeState::kDraining:
    case membership::NodeState::kLeft:
      router_.remove_node(t.node);
      break;
    case membership::NodeState::kAlive:
      if (t.from == membership::NodeState::kDead) {
        router_.add_node(t.node);
      }
      break;
    case membership::NodeState::kSuspect:
      break;  // still serving; no ring change until declared dead
  }
}

void Cluster::run() {
  sim_.run();
  GHS_CHECK(meta_.empty(), meta_.size() << " job(s) without a terminal "
                                           "outcome after the run drained");
}

ClusterReport Cluster::report() const {
  ClusterReport report;
  report.router = router_policy_name(options_.router);
  report.policy = options_.policy;
  report.nodes = options_.nodes;
  report.submitted = submitted_;
  report.served = static_cast<std::int64_t>(records_.size());
  report.rejected = static_cast<std::int64_t>(rejected_.size());
  report.shed = static_cast<std::int64_t>(shed_.size());
  report.remote_jobs = remote_jobs_;
  if (interconnect_ != nullptr) {
    report.transfers = interconnect_->transfers();
    report.transfer_gb = interconnect_->bytes_moved() / 1e9;
  }
  report.spills = spills_;
  report.spilled_saved = spilled_saved_;
  report.steals = steals_;
  report.stolen_jobs = stolen_jobs_;
  if (first_arrival_ >= 0 && last_completion_ > first_arrival_) {
    report.makespan = last_completion_ - first_arrival_;
  }
  report.bytes_served = bytes_served_;
  std::vector<double> latency_ms;
  latency_ms.reserve(records_.size());
  for (const auto& record : records_) {
    latency_ms.push_back(to_millis(record.latency()));
  }
  report.latency = serve::make_latency_stats(std::move(latency_ms));
  if (report.makespan > 0) {
    const double seconds = to_seconds(report.makespan);
    report.throughput_jobs_per_s =
        static_cast<double>(report.served) / seconds;
    report.throughput_gbps =
        static_cast<double>(report.bytes_served) / seconds / 1e9;
  }
  report.routed = routed_;
  std::int64_t total_routed = 0;
  std::int64_t max_routed = 0;
  for (const std::int64_t n : routed_) {
    total_routed += n;
    max_routed = std::max(max_routed, n);
  }
  if (total_routed > 0) {
    report.imbalance = static_cast<double>(max_routed) * options_.nodes /
                       static_cast<double>(total_routed);
  }
  for (const auto& node : nodes_) {
    report.node_reports.push_back(node->report());
  }
  if (membership_on_) {
    report.membership_aware = true;
    MembershipReport& m = report.membership;
    m.crashes = crashes_;
    m.restarts = restarts_;
    m.drains = drains_;
    m.drain_flushed = drain_flushed_;
    m.replayed = replayed_;
    m.redirected = redirected_;
    m.duplicate_suppressed = dup_suppressed_;
    m.replay_gb = static_cast<double>(replay_bytes_) / 1e9;
    m.detections = static_cast<std::int64_t>(detection_ms_.size());
    if (!detection_ms_.empty()) {
      double sum = 0.0;
      for (const double ms : detection_ms_) {
        sum += ms;
        m.detection_max_ms = std::max(m.detection_max_ms, ms);
      }
      m.detection_mean_ms = sum / static_cast<double>(detection_ms_.size());
    }
    m.transitions = static_cast<std::int64_t>(table_.log().size());
    for (int i = 0; i < options_.nodes; ++i) {
      m.final_states.push_back(membership::node_state_name(table_.state(i)));
    }
  }
  return report;
}

profile::ConservationTotals Cluster::conservation_totals() const {
  profile::ConservationTotals totals;
  for (const auto& node : nodes_) {
    const profile::ConservationTotals t = node->conservation_totals();
    totals.gpu_busy_ps += t.gpu_busy_ps;
    totals.cpu_busy_ps += t.cpu_busy_ps;
    totals.um_bytes += t.um_bytes;
  }
  totals.transfer_bytes = transfer_bytes_total_;
  totals.replay_bytes = replay_bytes_;
  return totals;
}

void Cluster::feed_slo(slo::Monitor& monitor) const {
  for (std::size_t i = 0; i < monitor.objectives().size(); ++i) {
    const auto& objective = monitor.objectives()[i];
    if (objective.kind == slo::ObjectiveKind::kAvailability) {
      for (const auto& record : records_) {
        monitor.record(i, record.completion, true);
      }
      for (const SimTime at : rejected_at_) monitor.record(i, at, false);
      for (const SimTime at : shed_at_) monitor.record(i, at, false);
    } else {
      for (const auto& record : records_) {
        monitor.record_latency(i, record.completion,
                               to_millis(record.latency()));
      }
    }
  }
}

}  // namespace ghs::cluster
