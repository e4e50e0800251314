#include "ghs/serve/loadgen.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <unordered_map>

#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::serve {

namespace {

/// One-time validation of a workload shape, hoisted out of the per-job
/// loop; returns the mix's total weight for pick_case draws.
double validate_shape(const WorkloadShape& shape) {
  GHS_REQUIRE(!shape.mix.empty(), "empty case mix");
  double total = 0.0;
  for (const auto& entry : shape.mix) {
    GHS_REQUIRE(entry.weight >= 0.0, "weight=" << entry.weight);
    total += entry.weight;
  }
  GHS_REQUIRE(total > 0.0, "case mix has zero total weight");
  GHS_REQUIRE(shape.min_log2_elements > 0 &&
                  shape.max_log2_elements >= shape.min_log2_elements &&
                  shape.max_log2_elements < 40,
              "element range [2^" << shape.min_log2_elements << ", 2^"
                                  << shape.max_log2_elements << "]");
  GHS_REQUIRE(shape.um_fraction <= 1.0,
              "um_fraction=" << shape.um_fraction);
  return total;
}

workload::CaseId pick_case(const std::vector<MixEntry>& mix, double total,
                           Rng& rng) {
  double draw = rng.next_double() * total;
  for (const auto& entry : mix) {
    draw -= entry.weight;
    if (draw <= 0.0) return entry.case_id;
  }
  return mix.back().case_id;
}

std::int64_t pick_elements(const WorkloadShape& shape, Rng& rng) {
  const auto span = static_cast<std::uint64_t>(shape.max_log2_elements -
                                               shape.min_log2_elements + 1);
  const auto k = shape.min_log2_elements +
                 static_cast<int>(rng.next_below(span));
  return std::int64_t{1} << k;
}

Job make_job(JobId id, const WorkloadShape& shape, double mix_total,
             SimTime arrival, Rng& rng) {
  Job job;
  job.id = id;
  job.case_id = pick_case(shape.mix, mix_total, rng);
  job.elements = pick_elements(shape, rng);
  job.arrival = arrival;
  if (shape.deadline > 0) {
    // Saturates: a deadline past the simulated clock's range never comes.
    constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
    job.deadline = shape.deadline > kNever - arrival
                       ? kNever
                       : arrival + shape.deadline;
  }
  // Drawing only when enabled keeps um_fraction == 0 workloads identical
  // to the pre-unified RNG stream.
  if (shape.um_fraction > 0.0) {
    job.unified = rng.next_double() < shape.um_fraction;
  }
  return job;
}

}  // namespace

std::vector<MixEntry> mixed_cases() {
  std::vector<MixEntry> mix;
  for (const auto case_id : workload::all_cases()) {
    mix.push_back(MixEntry{case_id, 1.0});
  }
  return mix;
}

std::vector<Job> open_loop_poisson(const OpenLoopOptions& options) {
  GHS_REQUIRE(options.rate_hz > 0.0, "rate_hz=" << options.rate_hz);
  GHS_REQUIRE(options.jobs > 0, "jobs=" << options.jobs);
  const double mix_total = validate_shape(options.shape);
  Rng rng(options.seed);
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(options.jobs));
  SimTime arrival = 0;
  for (JobId id = 0; id < options.jobs; ++id) {
    // Exponential gap; 1 - u keeps the argument strictly positive.
    const double u = rng.next_double();
    const double gap_s = -std::log(1.0 - u) / options.rate_hz;
    arrival += from_seconds(gap_s);
    jobs.push_back(make_job(id, options.shape, mix_total, arrival, rng));
  }
  return jobs;
}

void run_closed_loop(ReductionService& service,
                     const ClosedLoopOptions& options) {
  GHS_REQUIRE(options.tenants > 0, "tenants=" << options.tenants);
  GHS_REQUIRE(options.jobs >= options.tenants,
              "jobs=" << options.jobs << " < tenants=" << options.tenants);
  // At most `tenants` jobs are ever in flight, so this bound guarantees no
  // rejection (a rejected job would silently retire its tenant).
  GHS_REQUIRE(service.queue().max_depth() >=
                  static_cast<std::size_t>(options.tenants),
              "queue depth " << service.queue().max_depth()
                             << " < tenants=" << options.tenants);
  const double mix_total = validate_shape(options.shape);
  Rng rng(options.seed);
  std::int64_t issued = 0;
  std::unordered_map<JobId, int> tenant_of;

  const auto submit_next = [&](int tenant, SimTime at) {
    const JobId id = issued++;
    tenant_of[id] = tenant;
    service.submit(make_job(id, options.shape, mix_total, at, rng));
  };

  service.set_on_complete([&](const JobRecord& record) {
    const auto it = tenant_of.find(record.job.id);
    GHS_REQUIRE(it != tenant_of.end(), "unknown job " << record.job.id);
    if (issued < options.jobs) {
      submit_next(it->second, service.sim().now() + options.think_time);
    }
  });

  // Tenants start staggered by one picosecond so the arrival order (and
  // therefore the whole run) is deterministic.
  for (int tenant = 0; tenant < options.tenants && issued < options.jobs;
       ++tenant) {
    submit_next(tenant, service.sim().now() + tenant);
  }
  service.run();
  service.set_on_complete(nullptr);
}

}  // namespace ghs::serve
