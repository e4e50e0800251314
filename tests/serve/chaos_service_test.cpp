// Chaos tests: the serving layer against a fault::Injector. These pin the
// self-healing semantics — retries with backoff, circuit breaking, CPU
// fallback, deadline-aware shedding — plus the two compatibility
// invariants: an empty plan is byte-identical to no injector, and a chaos
// run replays byte-for-byte from (plan, seed).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "ghs/fault/injector.hpp"
#include "ghs/fault/plan.hpp"
#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/serve/service.hpp"

namespace ghs::serve {
namespace {

Job job(JobId id, workload::CaseId case_id, std::int64_t elements,
        SimTime arrival, SimTime deadline = 0, bool unified = false) {
  Job j;
  j.id = id;
  j.case_id = case_id;
  j.elements = elements;
  j.arrival = arrival;
  j.deadline = deadline;
  j.unified = unified;
  return j;
}

std::string report_json(const ServiceReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return out.str();
}

TEST(ChaosServiceTest, OutageTripsBreakerAndCpuFallbackKeepsServing) {
  const auto plan =
      fault::parse_plan("device-down gpu from=100us until=300us\n");
  ServiceModel model;
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  for (JobId id = 0; id < 30; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16,
                       id * 20 * kMicrosecond));
  }
  service.run();
  const auto report = service.report();
  EXPECT_TRUE(report.fault_aware);
  EXPECT_GT(report.gpu_failures, 0);
  EXPECT_GT(report.breaker_opens, 0);
  // FIFO never places on the CPU by itself, so every CPU job below came
  // through degraded placement while the GPU breaker was open.
  EXPECT_GT(report.fallback_cpu_jobs, 0);
  EXPECT_EQ(report.cpu_jobs, report.fallback_cpu_jobs);
  // Zero lost jobs: chaos delays work, it never loses it.
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_EQ(report.served + report.shed, 30);
}

TEST(ChaosServiceTest, UnifiedJobsNeverFallBackToCpu) {
  const auto plan =
      fault::parse_plan("device-down gpu from=0us until=200us\n");
  ServiceModel model;
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  std::int64_t unified_served = 0;
  service.set_on_complete([&unified_served](const JobRecord& record) {
    if (record.job.unified) {
      ++unified_served;
      EXPECT_EQ(record.placement, Placement::kGpu);
    }
  });
  for (JobId id = 0; id < 8; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16,
                       id * 10 * kMicrosecond, /*deadline=*/0,
                       /*unified=*/id % 2 == 0));
  }
  service.run();
  const auto report = service.report();
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
  EXPECT_EQ(unified_served, report.um_jobs);
}

TEST(ChaosServiceTest, RetriedJobsServeOnceTheOutageLifts) {
  const auto plan =
      fault::parse_plan("device-down gpu from=0us until=200us\n");
  ServiceModel model;
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  options.use_cpu = false;  // no fallback: recovery must come from retries
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  for (JobId id = 0; id < 4; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16,
                       id * 10 * kMicrosecond));
  }
  service.run();
  const auto report = service.report();
  // Three launches fail fast inside the outage (10us error latency each),
  // tripping the breaker; their jobs retry and serve after recovery.
  EXPECT_EQ(report.served, 4);
  EXPECT_EQ(report.shed, 0);
  EXPECT_EQ(report.gpu_failures, 3);
  EXPECT_EQ(report.retries, 3);
  EXPECT_EQ(report.breaker_opens, 1);
  EXPECT_EQ(service.breaker(Placement::kGpu).state(),
            fault::BreakerState::kClosed);
}

TEST(ChaosServiceTest, RetryBudgetExhaustionShedsInsteadOfLooping) {
  const auto plan = fault::parse_plan("kernel-fault gpu p=1\n");
  ServiceModel model;
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  options.use_cpu = false;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  for (JobId id = 0; id < 5; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16, 0));
  }
  service.run();
  const auto report = service.report();
  EXPECT_EQ(report.served, 0);
  EXPECT_EQ(report.shed, 5);
  EXPECT_EQ(service.outcomes().shed.size(), 5u);
  // kMaxAttempts = 4: each job burns 3 retries before it is shed.
  EXPECT_EQ(report.retries, 15);
  EXPECT_EQ(report.submitted, report.served + report.rejected + report.shed);
}

TEST(ChaosServiceTest, DeadlineUnreachableJobsAreShedWithoutRetrying) {
  const auto plan = fault::parse_plan("kernel-fault gpu p=1\n");
  ServiceModel model;
  fault::Injector injector(plan, 7);
  ServiceOptions options;
  options.injector = &injector;
  options.use_cpu = false;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  // The retry backoff (>= 50us) alone overruns this deadline, so the first
  // failure sheds the job instead of scheduling a doomed retry.
  service.submit(job(0, workload::CaseId::kC1, 1 << 16, 0,
                     /*deadline=*/30 * kMicrosecond));
  service.run();
  const auto report = service.report();
  EXPECT_EQ(report.served, 0);
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.retries, 0);
}

TEST(ChaosServiceTest, EmptyPlanIsByteIdenticalToNoInjector) {
  const auto run = [](bool with_empty_injector) {
    ServiceModel model;
    fault::Injector injector(fault::FaultPlan{}, 7);
    ServiceOptions options;
    if (with_empty_injector) options.injector = &injector;
    ReductionService service(std::make_unique<FifoPolicy>(), model, options);
    for (JobId id = 0; id < 12; ++id) {
      service.submit(job(id, workload::CaseId::kC2, 1 << 17,
                         id * 5 * kMicrosecond));
    }
    service.run();
    return report_json(service.report());
  };
  const auto bare = run(false);
  EXPECT_EQ(bare, run(true));
  // The fault keys must be absent, not zero-valued.
  EXPECT_EQ(bare.find("\"retries\""), std::string::npos);
  EXPECT_EQ(bare.find("\"breaker_opens\""), std::string::npos);
}

TEST(ChaosServiceTest, SamePlanAndSeedReplaysByteForByte) {
  const auto plan = fault::parse_plan(
      "kernel-fault gpu p=0.2\n"
      "device-down gpu from=200us until=500us\n"
      "bandwidth cpu scale=0.5 from=100us until=400us\n");
  const auto run = [&plan](std::uint64_t fault_seed) {
    ServiceModel model;
    fault::Injector injector(plan, fault_seed);
    ServiceOptions options;
    options.injector = &injector;
    ReductionService service(std::make_unique<FifoPolicy>(), model, options);
    OpenLoopOptions load;
    load.jobs = 60;
    load.rate_hz = 120000.0;
    load.seed = 42;
    service.submit_all(open_loop_poisson(load));
    service.run();
    return report_json(service.report());
  };
  const auto a = run(7);
  EXPECT_EQ(a, run(7));
  EXPECT_NE(a.find("\"breaker_opens\""), std::string::npos);
}

}  // namespace
}  // namespace ghs::serve
