// Wall-clock throughput instrumentation for the serve-layer load
// generators (--perf). Everything here measures the real machine, not the
// simulated one, so the section is opt-in: default reports stay
// byte-identical across runs and machines, and perf numbers are gated by
// scripts/perf_gate.py as bounds (floors on throughput, ceilings on peak
// RSS and on heap allocations per job) rather than diffed exactly.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "ghs/util/writer.hpp"

namespace ghs::bench {

/// One policy run's event-core throughput: simulator events and served
/// jobs per second of wall time, measured from first submit to queue
/// drain, and the process's peak resident set so far.
struct PerfSample {
  std::string policy;
  double wall_seconds = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t jobs_served = 0;
  std::size_t peak_queue_size = 0;
  double peak_rss_mb = 0.0;
  /// Heap allocations during the measured span (alloc_counter.hpp).
  std::uint64_t allocations = 0;

  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(sim_events) / wall_seconds
                              : 0.0;
  }
  double jobs_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(jobs_served) / wall_seconds
                              : 0.0;
  }
  double allocs_per_job() const {
    return jobs_served > 0 ? static_cast<double>(allocations) /
                                 static_cast<double>(jobs_served)
                           : 0.0;
  }
};

/// Peak resident set size of this process so far, in MiB (getrusage
/// reports KiB on Linux).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_seconds() const {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    return d.count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Renders the "perf" report section: a JSON array, one entry per policy
/// run, stable key order.
inline void write_perf_json(std::ostream& os,
                            const std::vector<PerfSample>& samples) {
  Writer w(os);
  w << "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const PerfSample& s = samples[i];
    if (i > 0) w << ",";
    w << "{\"policy\":\"" << s.policy << "\",\"wall_seconds\":"
      << Fixed{s.wall_seconds, 3} << ",\"sim_events\":" << s.sim_events
      << ",\"events_per_sec\":" << Fixed{s.events_per_sec(), 3}
      << ",\"jobs_per_sec\":" << Fixed{s.jobs_per_sec(), 3}
      << ",\"peak_queue_size\":" << s.peak_queue_size
      << ",\"peak_rss_mb\":" << Fixed{s.peak_rss_mb, 3}
      << ",\"allocs_per_job\":" << Fixed{s.allocs_per_job(), 3} << "}";
  }
  w << "]";
}

}  // namespace ghs::bench
