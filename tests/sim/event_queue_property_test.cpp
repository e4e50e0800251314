// Property test: the Simulator dispatches randomized schedules exactly as
// a reference model does — events sorted by (time, insertion order), the
// earliest one taken from a plain list each step. The schedules mix heavy
// same-time ties, same-time follow-ups that handlers schedule inside
// drain_batch, and far-future outliers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "ghs/sim/simulator.hpp"
#include "ghs/util/rng.hpp"

namespace ghs::sim {
namespace {

struct Shape {
  std::size_t initial = 0;
  std::size_t budget = 0;      // total events, initial ones included
  std::uint64_t tie_bias = 0;  // % of new events at the current time
  std::size_t outlier_every = 0;  // every n-th new event is far-future
};

/// Decides, in dispatch order, what each fired event schedules next. Both
/// runs below consume it identically only if they dispatch identically.
class Workload {
 public:
  Workload(std::uint64_t seed, const Shape& shape)
      : rng_(seed), shape_(shape) {}

  /// Times of the events the handler firing at `now` schedules: one or
  /// two until the budget is spent, so every run dispatches exactly
  /// `budget` events.
  std::vector<SimTime> follow_ups(SimTime now) {
    std::vector<SimTime> out;
    const auto count = 1 + rng_.next_below(2);
    for (std::uint64_t i = 0; i < count && scheduled_ < shape_.budget; ++i) {
      out.push_back(next_time(now));
    }
    return out;
  }

  std::vector<SimTime> initial() {
    std::vector<SimTime> out;
    while (out.size() < shape_.initial) out.push_back(next_time(0));
    return out;
  }

 private:
  SimTime next_time(SimTime now) {
    ++scheduled_;
    if (shape_.outlier_every != 0 && scheduled_ % shape_.outlier_every == 0) {
      return now + static_cast<SimTime>(rng_.next_below(1u << 20)) +
             (SimTime{1} << 44);
    }
    if (rng_.next_below(100) < shape_.tie_bias) return now;
    return now + static_cast<SimTime>(rng_.next_below(5000));
  }

  Rng rng_;
  Shape shape_;
  std::size_t scheduled_ = 0;
};

struct Fired {
  std::uint64_t id;  // insertion order
  SimTime at;
  bool operator==(const Fired&) const = default;
};

struct SimulatorRun {
  std::vector<Fired> fired;
  std::vector<std::size_t> batches;  // drain_batch() return values
};

SimulatorRun run_simulator(std::uint64_t seed, const Shape& shape) {
  Simulator sim;
  Workload workload(seed, shape);
  SimulatorRun run;
  std::uint64_t next_id = 0;
  // Each handler records itself, then schedules its follow-ups.
  std::function<void(SimTime)> schedule = [&](SimTime t) {
    const std::uint64_t id = next_id++;
    sim.schedule_at(t, [&, id] {
      run.fired.push_back({id, sim.now()});
      for (const SimTime f : workload.follow_ups(sim.now())) schedule(f);
    });
  };
  for (const SimTime t : workload.initial()) schedule(t);
  while (const std::size_t n = sim.drain_batch()) run.batches.push_back(n);
  EXPECT_EQ(sim.events_processed(), run.fired.size());
  EXPECT_TRUE(sim.idle());
  return run;
}

std::vector<Fired> run_reference(std::uint64_t seed, const Shape& shape) {
  struct Pending {
    SimTime time;
    std::uint64_t id;
  };
  Workload workload(seed, shape);
  std::vector<Pending> pending;
  std::vector<Fired> fired;
  std::uint64_t next_id = 0;
  for (const SimTime t : workload.initial()) pending.push_back({t, next_id++});
  while (!pending.empty()) {
    const auto it = std::min_element(
        pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          return a.time != b.time ? a.time < b.time : a.id < b.id;
        });
    const Pending next = *it;
    pending.erase(it);
    fired.push_back({next.id, next.time});
    for (const SimTime f : workload.follow_ups(next.time)) {
      pending.push_back({f, next_id++});
    }
  }
  return fired;
}

/// Lengths of the runs of equal dispatch times: what drain_batch() must
/// return, one timestamp per call.
std::vector<std::size_t> time_runs(const std::vector<Fired>& fired) {
  std::vector<std::size_t> runs;
  for (std::size_t i = 0; i < fired.size(); ++i) {
    if (i == 0 || fired[i].at != fired[i - 1].at) runs.push_back(0);
    ++runs.back();
  }
  return runs;
}

void expect_matches_reference(std::uint64_t seed, const Shape& shape) {
  const SimulatorRun sim = run_simulator(seed, shape);
  const std::vector<Fired> reference = run_reference(seed, shape);
  ASSERT_EQ(sim.fired.size(), shape.budget);
  EXPECT_EQ(sim.fired, reference);
  EXPECT_EQ(sim.batches, time_runs(reference));
}

class SimulatorVsReference : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimulatorVsReference, MixedScheduleWithOutliers) {
  expect_matches_reference(GetParam(), {/*initial=*/200, /*budget=*/2000,
                                        /*tie_bias=*/30,
                                        /*outlier_every=*/97});
}

TEST_P(SimulatorVsReference, HeavySameTimeTies) {
  // 85% of new events land on the current timestamp, so most batches
  // grow while they run: the regime the serve layer produces when a batch
  // completes and retries fan out.
  expect_matches_reference(GetParam() * 7919 + 13,
                           {/*initial=*/300, /*budget=*/3000,
                            /*tie_bias=*/85, /*outlier_every=*/0});
}

TEST_P(SimulatorVsReference, WholeScheduleQueuedUpFront) {
  // Every event is queued before the run starts, 40% of them at t=0:
  // long equal-time runs, drained one timestamp per drain_batch() call.
  expect_matches_reference(GetParam() * 104729 + 7,
                           {/*initial=*/1500, /*budget=*/1500,
                            /*tie_bias=*/40, /*outlier_every=*/0});
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorVsReference,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           987654321u));

}  // namespace
}  // namespace ghs::sim
