// The --perf section's bytes. Its numbers are wall-clock, so no report
// golden covers them; a fixed PerfSample pins the format instead.
#include "serve_perf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

namespace ghs::bench {
namespace {

TEST(WritePerfJsonTest, FixedSamplesRenderPinnedBytes) {
  PerfSample timed;
  timed.policy = "fifo";
  timed.wall_seconds = 1.5;
  timed.sim_events = 3000;
  timed.jobs_served = 1000;
  timed.peak_queue_size = 7;
  timed.peak_rss_mb = 12.25;
  timed.allocations = 2500;
  PerfSample untimed;
  untimed.policy = "bandwidth";
  std::ostringstream os;
  write_perf_json(os, {timed, untimed});
  EXPECT_EQ(os.str(),
            "[{\"policy\":\"fifo\",\"wall_seconds\":1.500,"
            "\"sim_events\":3000,\"events_per_sec\":2000.000,"
            "\"jobs_per_sec\":666.667,\"peak_queue_size\":7,"
            "\"peak_rss_mb\":12.250,\"allocs_per_job\":2.500},"
            "{\"policy\":\"bandwidth\",\"wall_seconds\":0.000,"
            "\"sim_events\":0,\"events_per_sec\":0.000,"
            "\"jobs_per_sec\":0.000,\"peak_queue_size\":0,"
            "\"peak_rss_mb\":0.000,\"allocs_per_job\":0.000}]");
}

}  // namespace
}  // namespace ghs::bench
