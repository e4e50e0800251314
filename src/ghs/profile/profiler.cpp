#include "ghs/profile/profiler.hpp"

#include <ostream>

#include "ghs/util/error.hpp"
#include "ghs/util/writer.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::profile {

namespace {

const char* op_name(std::uint8_t op) {
  return workload::case_spec(static_cast<workload::CaseId>(op)).name;
}

}  // namespace

Profiler::Profiler(sim::Simulator& sim, Recorder& recorder,
                   ProfilerOptions options, timeseries::Tsdb* store)
    : sim_(sim), recorder_(recorder), options_(options), store_(store) {
  GHS_REQUIRE(options_.interval > 0, "profile interval must be positive");
}

void Profiler::start() {
  GHS_REQUIRE(!started_, "profiler started twice");
  started_ = true;
  // Cursor baseline without emission, mirroring Scraper::start(): a ledger
  // carrying charges from a previous run on the same recorder contributes
  // only its future increments to this run's series.
  for (const auto& [tenant, busy] : recorder_.ledger().tenant_busy()) {
    tenant_cursors_.push_back({busy, nullptr});
  }
  for (const auto& [op, busy] : recorder_.ledger().op_busy()) {
    op_cursors_.push_back({busy, nullptr});
  }
  last_sample_at_ = sim_.now();
  sim_.schedule_after(options_.interval, [this] { on_tick(); });
}

void Profiler::on_tick() {
  take_sample();
  // Same trailing-tick contract as the scraper: an empty queue means the
  // workload drained inside this interval, so the chain ends and run()
  // terminates; finish() covers same-timestamp stragglers.
  if (!sim_.idle()) {
    sim_.schedule_after(options_.interval, [this] { on_tick(); });
  }
}

void Profiler::finish() {
  if (!started_) return;
  if (sim_.now() > last_sample_at_) {
    // Handlers after the trailing tick advanced sim time; cover the tail
    // with one more full sample.
    take_sample();
  } else {
    // Same-timestamp stragglers can still have charged the ledger after
    // the trailing tick sampled it; flush those deltas without
    // double-counting the instant in the folded stacks.
    flush_series();
  }
}

std::string Profiler::stack_of(const std::pair<std::int16_t, Device>& key,
                               const DeviceActivity& activity,
                               SimTime now) const {
  std::string stack = "node" + std::to_string(key.first);
  stack += ";";
  stack += device_name(key.second);
  if (now < activity.begin || now >= activity.end) {
    stack += ";idle";
    return stack;
  }
  stack += ";tenant=" + std::to_string(activity.tenant);
  stack += ";op=";
  stack += op_name(activity.op);
  stack += ";";
  if (activity.failed) {
    stack += phase_name(Phase::kLaunchFailed);
  } else if (key.second == Device::kCpu) {
    stack += phase_name(Phase::kCpuKernel);
  } else if (activity.unified && now < activity.kernel_begin) {
    stack += phase_name(Phase::kUmMigrate);
  } else {
    stack += phase_name(Phase::kGpuKernel);
  }
  return stack;
}

void Profiler::take_sample() {
  const SimTime now = sim_.now();
  for (const auto& [key, activity] : recorder_.devices()) {
    const std::string stack = stack_of(key, activity, now);
    ++folded_[stack];
    // Each sample labels the interval since the previous tick; coalescing
    // runs of the same stack keeps the slice track linear in state
    // changes, not in samples.
    auto& runs = runs_[key];
    if (!runs.empty() && runs.back().stack == stack &&
        runs.back().end == last_sample_at_) {
      runs.back().end = now;
    } else {
      runs.push_back({stack, last_sample_at_, now});
    }
  }
  ++samples_;
  flush_series();
  last_sample_at_ = now;
}

void Profiler::flush_series() {
  if (store_ == nullptr) return;
  flush(recorder_.ledger().tenant_busy(), tenant_cursors_,
        "ghs_profile_tenant_busy_ps_total{tenant=\"", false);
  flush(recorder_.ledger().op_busy(), op_cursors_,
        "ghs_profile_op_busy_ps_total{op=\"", true);
}

void Profiler::flush(const std::vector<CostLedger::Busy>& busy,
                     std::vector<Cursor>& cursors, const char* prefix,
                     bool op_labels) {
  const SimTime at = sim_.now();
  cursors.resize(busy.size());
  for (std::size_t i = 0; i < busy.size(); ++i) {
    Cursor& cursor = cursors[i];
    if (cursor.series == nullptr) {
      const std::string label =
          op_labels ? op_name(static_cast<std::uint8_t>(busy[i].id))
                    : std::to_string(busy[i].id);
      cursor.series = &store_->series(prefix + label + "\"}",
                                      timeseries::SeriesKind::kCounterDelta);
    }
    cursor.series->append(at,
                          static_cast<double>(busy[i].busy_ps - cursor.seen));
    cursor.seen = busy[i].busy_ps;
  }
}

void Profiler::write_collapsed(std::ostream& os) const {
  Writer w(os);
  for (const auto& [stack, count] : folded_) {
    w << stack << " " << count << "\n";
  }
}

std::vector<trace::ProfileTrack> Profiler::tracks() const {
  std::vector<trace::ProfileTrack> tracks;
  tracks.reserve(runs_.size());
  for (const auto& [key, runs] : runs_) {
    trace::ProfileTrack track;
    track.name = "node" + std::to_string(key.first) + " " +
                 device_name(key.second) + " profile";
    track.slices.reserve(runs.size());
    for (const SliceRun& run : runs) {
      track.slices.push_back({run.stack, run.begin, run.end});
    }
    tracks.push_back(std::move(track));
  }
  return tracks;
}

}  // namespace ghs::profile
