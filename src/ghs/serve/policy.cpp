#include "ghs/serve/policy.hpp"

#include <string>

#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/util/error.hpp"

namespace ghs::serve {

namespace {

// Unused-parameter-free helper: FIFO and SJF never place work on the CPU.
std::optional<std::size_t> gpu_only(const AdmissionQueue& queue,
                                    Placement device) {
  if (device != Placement::kGpu || queue.empty()) return std::nullopt;
  return std::size_t{0};
}

/// (case, elements)
constexpr telemetry::EventType kCacheMissEvent{
    "tuner", "cache_miss",
    [](std::string& out, const telemetry::EventArgs& a) {
      telemetry::append(
          out, workload::case_spec(static_cast<workload::CaseId>(a.i(0))).name,
          " ", a.i(1), " elements");
    }};

}  // namespace

std::optional<std::size_t> FifoPolicy::select(const AdmissionQueue& queue,
                                              Placement device,
                                              SimTime /*now*/) {
  return gpu_only(queue, device);
}

core::ReduceTuning FifoPolicy::geometry(const Job& job) {
  return core::paper_best_tuning(job.case_id);
}

std::optional<std::size_t> ShortestJobFirstPolicy::select(
    const AdmissionQueue& queue, Placement device, SimTime /*now*/) {
  if (device != Placement::kGpu || queue.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue.size(); ++i) {
    if (queue.at(i).bytes() < queue.at(best).bytes()) best = i;
  }
  return best;
}

core::ReduceTuning ShortestJobFirstPolicy::geometry(const Job& job) {
  return core::paper_best_tuning(job.case_id);
}

bool BandwidthAwarePolicy::cpu_eligible(const Job& job) {
  // Unified jobs hand the GPU a managed buffer; the host path is not
  // priced for them.
  if (job.unified) return false;
  if (job.bytes() > kMaxCpuBytes) return false;
  const SimTime cpu = model_.cpu_service(job.case_id, job.elements);
  const SimTime gpu = model_.gpu_service(job.case_id, job.elements,
                                         geometry(job));
  return static_cast<double>(cpu) <=
         kCpuSlowdownLimit * static_cast<double>(gpu);
}

std::optional<std::size_t> BandwidthAwarePolicy::select(
    const AdmissionQueue& queue, Placement device, SimTime /*now*/) {
  if (queue.empty()) return std::nullopt;
  if (device == Placement::kGpu) return std::size_t{0};
  // CPU: first queued job the host can absorb without dragging tail
  // latency (arrival order among eligible jobs).
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (cpu_eligible(queue.at(i))) return i;
  }
  return std::nullopt;
}

core::ReduceTuning BandwidthAwarePolicy::geometry(const Job& job) {
  const telemetry::Sink& sink = model_.options().telemetry;
  const FlatTable<2, core::ReduceTuning>::Key key{
      static_cast<int>(job.case_id), job.elements};
  if (const core::ReduceTuning* tuned = cache_.find(key)) {
    ++cache_stats_.hits;
    if (sink.metrics != nullptr) {
      // Resolved at the first hit, not before: an instrument appears in
      // the registry (and its series in a scrape) when it first counts.
      if (m_hits_ == nullptr) {
        m_hits_ = &sink.metrics->counter(
            "ghs_tuner_cache_hits_total", {},
            "Geometry-cache lookups served without re-tuning");
      }
      m_hits_->inc();
    }
    return *tuned;
  }
  ++cache_stats_.misses;
  if (sink.metrics != nullptr) {
    if (m_misses_ == nullptr) {
      m_misses_ = &sink.metrics->counter(
          "ghs_tuner_cache_misses_total", {},
          "Geometry-cache lookups that ran the hill-climb tuner");
    }
    m_misses_->inc();
  }
  if (sink.flight != nullptr) {
    sink.flight->record(job.arrival, kCacheMissEvent, job.case_id,
                        job.elements);
  }
  core::TunerOptions tuner;
  tuner.elements = job.elements;
  tuner.iterations = 1;
  tuner.max_probes = kMaxProbes;
  tuner.config = model_.options().config;
  tuner.telemetry = sink;
  const auto result = core::tune_reduction(
      job.case_id, core::paper_best_tuning(job.case_id), tuner);
  cache_.insert(key, result.best);
  return result.best;
}

std::unique_ptr<SchedulerPolicy> make_policy(const std::string& name,
                                             ServiceModel& model) {
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "sjf") return std::make_unique<ShortestJobFirstPolicy>();
  if (name == "bandwidth") return std::make_unique<BandwidthAwarePolicy>(model);
  GHS_REQUIRE(false, "unknown policy '" << name
                                        << "' (fifo|sjf|bandwidth)");
  return nullptr;
}

}  // namespace ghs::serve
