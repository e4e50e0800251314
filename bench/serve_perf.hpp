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
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

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
  const auto fixed = [&os](double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    os << buf;
  };
  os << "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const PerfSample& s = samples[i];
    if (i > 0) os << ",";
    os << "{\"policy\":\"" << s.policy << "\",\"wall_seconds\":";
    fixed(s.wall_seconds);
    os << ",\"sim_events\":" << s.sim_events
       << ",\"events_per_sec\":";
    fixed(s.events_per_sec());
    os << ",\"jobs_per_sec\":";
    fixed(s.jobs_per_sec());
    os << ",\"peak_queue_size\":" << s.peak_queue_size
       << ",\"peak_rss_mb\":";
    fixed(s.peak_rss_mb);
    os << ",\"allocs_per_job\":";
    fixed(s.allocs_per_job());
    os << "}";
  }
  os << "]";
}

}  // namespace ghs::bench
