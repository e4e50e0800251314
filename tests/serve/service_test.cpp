#include "ghs/serve/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "ghs/serve/loadgen.hpp"
#include "ghs/serve/policy.hpp"
#include "ghs/trace/chrome_exporter.hpp"

namespace ghs::serve {
namespace {

Job job(JobId id, workload::CaseId case_id, std::int64_t elements,
        SimTime arrival, SimTime deadline = 0) {
  Job j;
  j.id = id;
  j.case_id = case_id;
  j.elements = elements;
  j.arrival = arrival;
  j.deadline = deadline;
  return j;
}

TEST(ReductionServiceTest, ServesEverythingWhenUnderLoaded) {
  ServiceModel model;
  ReductionService service(std::make_unique<FifoPolicy>(), model);
  std::vector<JobRecord> records;
  service.set_on_complete(
      [&records](const JobRecord& record) { records.push_back(record); });
  for (JobId id = 0; id < 4; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16,
                       id * kMicrosecond));
  }
  service.run();
  EXPECT_EQ(service.report().rejected, 0);
  // One entry per completion, in completion order, holding the times the
  // completion hook saw.
  const std::vector<JobTimes>& served = service.served_times();
  ASSERT_EQ(served.size(), 4u);
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].arrival, records[i].job.arrival);
    EXPECT_EQ(served[i].start, records[i].start);
    EXPECT_EQ(served[i].completion, records[i].completion);
    EXPECT_GE(served[i].start, served[i].arrival);
    EXPECT_GT(served[i].completion, served[i].start);
    if (i > 0) {
      EXPECT_GE(served[i].completion, served[i - 1].completion);
    }
  }
}

TEST(ReductionServiceTest, BackpressureRejectsBeyondQueueDepth) {
  ServiceModel model;
  ServiceOptions options;
  options.queue_depth = 4;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  // A big job pins the GPU while a burst lands at the same instant.
  service.submit(job(0, workload::CaseId::kC4, 1 << 24, 0));
  for (JobId id = 1; id <= 10; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16, 1));
  }
  service.run();
  const auto report = service.report();
  EXPECT_EQ(report.submitted, 11);
  EXPECT_EQ(report.rejected, 6);  // 4 queued + 1 in service + 6 refused
  EXPECT_EQ(report.served, 5);
  EXPECT_EQ(service.rejected_jobs().size(), 6u);
  EXPECT_EQ(report.queue_high_watermark, 4u);
}

TEST(ReductionServiceTest, BatchesSmallSameCaseJobsIntoOneLaunch) {
  ServiceModel model;
  ReductionService service(std::make_unique<FifoPolicy>(), model);
  std::vector<JobRecord> records;
  service.set_on_complete(
      [&records](const JobRecord& record) { records.push_back(record); });
  // One blocker so the burst is queued when the GPU frees.
  service.submit(job(0, workload::CaseId::kC4, 1 << 22, 0));
  for (JobId id = 1; id <= 4; ++id) {
    service.submit(job(id, workload::CaseId::kC3, 1 << 14, 1));
  }
  service.run();
  const auto stats = service.report();
  EXPECT_EQ(stats.multi_job_launches, 1);
  EXPECT_EQ(stats.batched_jobs, 4);
  EXPECT_EQ(stats.launches, 2);  // blocker + one fused launch
  // All batch riders share one launch id and completion time.
  std::int64_t batch_launch = -1;
  SimTime completion = 0;
  ASSERT_EQ(records.size(), 5u);
  for (const auto& record : records) {
    if (record.job.case_id != workload::CaseId::kC3) continue;
    if (batch_launch < 0) {
      batch_launch = record.launch_id;
      completion = record.completion;
    }
    EXPECT_EQ(record.launch_id, batch_launch);
    EXPECT_EQ(record.completion, completion);
  }
}

TEST(ReductionServiceTest, BatchStopsAtEightJobs) {
  ServiceModel model;
  ReductionService service(std::make_unique<FifoPolicy>(), model);
  service.submit(job(0, workload::CaseId::kC4, 1 << 22, 0));
  for (JobId id = 1; id <= 9; ++id) {
    service.submit(job(id, workload::CaseId::kC3, 1 << 14, 1));
  }
  service.run();
  const auto stats = service.report();
  EXPECT_EQ(stats.launches, 3);  // blocker, a batch of 8, the ninth alone
  EXPECT_EQ(stats.multi_job_launches, 1);
  EXPECT_EQ(stats.batched_jobs, 8);
}

TEST(ReductionServiceTest, BatchingOffLaunchesIndividually) {
  ServiceModel model;
  ServiceOptions options;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  service.submit(job(0, workload::CaseId::kC4, 1 << 22, 0));
  for (JobId id = 1; id <= 4; ++id) {
    service.submit(job(id, workload::CaseId::kC3, 1 << 14, 1));
  }
  service.run();
  EXPECT_EQ(service.report().launches, 5);
  EXPECT_EQ(service.report().multi_job_launches, 0);
}

TEST(ReductionServiceTest, BatchingImprovesMakespanOnTinyJobBursts) {
  const auto burst = [](bool batching) {
    ServiceModel model;
    ServiceOptions options;
    options.batching.enable = batching;
    ReductionService service(std::make_unique<FifoPolicy>(), model, options);
    for (JobId id = 0; id < 16; ++id) {
      service.submit(job(id, workload::CaseId::kC1, 1 << 14, 0));
    }
    service.run();
    return service.report().makespan;
  };
  EXPECT_LT(burst(true), burst(false));
}

TEST(ReductionServiceTest, DeadlineAccounting) {
  ServiceModel model;
  ServiceOptions options;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options);
  // Impossible deadline (1 ns) on a multi-microsecond job, generous one on
  // the other.
  service.submit(job(0, workload::CaseId::kC4, 1 << 22, 0, kNanosecond));
  service.submit(job(1, workload::CaseId::kC1, 1 << 16, 0, kSecond));
  service.run();
  EXPECT_EQ(service.report().deadline_missed, 1);
}

TEST(ReductionServiceTest, BandwidthPolicyUsesBothProcessors) {
  ServiceModel model;
  ReductionService service(
      std::make_unique<BandwidthAwarePolicy>(model), model);
  for (JobId id = 0; id < 12; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16, 0));
  }
  service.run();
  const auto report = service.report();
  EXPECT_EQ(report.served, 12);
  EXPECT_GT(report.gpu_jobs, 0);
  EXPECT_GT(report.cpu_jobs, 0);
  EXPECT_GT(report.tuner_misses, 0);
}

TEST(ReductionServiceTest, ServerSpansLandOnTheServerTrack) {
  ServiceModel model;
  trace::Tracer tracer;
  ServiceOptions options;
  options.queue_depth = 2;
  options.batching.enable = false;
  ReductionService service(std::make_unique<FifoPolicy>(), model, options,
                           &tracer);
  service.submit(job(0, workload::CaseId::kC4, 1 << 22, 0));
  for (JobId id = 1; id <= 5; ++id) {
    service.submit(job(id, workload::CaseId::kC1, 1 << 16, 1));
  }
  service.run();
  std::size_t server_spans = 0;
  for (const auto& span : tracer.spans()) {
    if (span.track == trace::Track::kServer) ++server_spans;
  }
  std::size_t reject_marks = 0;
  for (const auto& instant : tracer.instants()) {
    if (instant.track == trace::Track::kServer) ++reject_marks;
  }
  EXPECT_EQ(server_spans, 3u);  // blocker + 2 queued launches
  EXPECT_EQ(reject_marks, 3u);
  std::ostringstream json;
  trace::ChromeTraceExporter(tracer).write(json);
  EXPECT_NE(json.str().find("Reduction service"), std::string::npos);
}

TEST(ReductionServiceTest, LatencyStatsDegradeGracefullyOnTinySeries) {
  const LatencyStats empty = make_latency_stats({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.max_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.pct.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.pct.p999, 0.0);

  const LatencyStats single = make_latency_stats({2.25});
  EXPECT_EQ(single.count, 1u);
  EXPECT_DOUBLE_EQ(single.mean_ms, 2.25);
  EXPECT_DOUBLE_EQ(single.max_ms, 2.25);
  EXPECT_DOUBLE_EQ(single.pct.p50, 2.25);
  EXPECT_DOUBLE_EQ(single.pct.p99, 2.25);
}

TEST(ReductionServiceTest, BurstyArrivalsFillQueueToDepthDeterministically) {
  const auto run = [] {
    ServiceModel model;
    ServiceOptions options;
    options.queue_depth = 6;
    options.batching.enable = false;
    ReductionService service(std::make_unique<FifoPolicy>(), model, options);
    // Two bursts: the first overwhelms the queue while a big job pins the
    // GPU; the second lands after some drain, refilling to the depth.
    service.submit(job(0, workload::CaseId::kC4, 1 << 24, 0));
    JobId id = 1;
    for (int burst = 0; burst < 2; ++burst) {
      for (int k = 0; k < 10; ++k) {
        service.submit(job(id++, workload::CaseId::kC1, 1 << 16,
                           burst * 200 * kMicrosecond + 1));
      }
    }
    service.run();
    std::ostringstream json;
    service.report().write_json(json);
    return std::make_pair(service.report(), json.str());
  };
  const auto [report, json_a] = run();
  // The queue fills exactly to its bound, never past it, and every job is
  // either served or rejected — none lost in between.
  EXPECT_EQ(report.queue_high_watermark, 6u);
  EXPECT_GT(report.rejected, 0);
  EXPECT_EQ(report.submitted, 21);
  EXPECT_EQ(report.served + report.rejected, report.submitted);
  // Same seed, same bursts: the report replays byte-for-byte.
  EXPECT_EQ(json_a, run().second);
}

TEST(ClosedLoopTest, KeepsTenantsJobLimitAndDeterminism) {
  const auto run = [] {
    ServiceModel model;
    ReductionService service(std::make_unique<FifoPolicy>(), model);
    ClosedLoopOptions options;
    options.tenants = 4;
    options.jobs = 20;
    options.seed = 7;
    run_closed_loop(service, options);
    std::ostringstream json;
    service.report().write_json(json);
    return std::make_pair(service.report().served, json.str());
  };
  const auto [served_a, json_a] = run();
  const auto [served_b, json_b] = run();
  EXPECT_EQ(served_a, 20);
  EXPECT_EQ(json_a, json_b);
}

}  // namespace
}  // namespace ghs::serve
