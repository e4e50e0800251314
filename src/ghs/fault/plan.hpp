// Declarative fault plans for chaos campaigns against the serving layer.
//
// A FaultPlan is data, not behaviour: it lists *when* and *how* the
// simulated hardware degrades — transient kernel failures (per-launch
// probability or scheduled windows), bandwidth brown-outs (a device's
// effective GB/s scaled down for a simulated interval), device-down
// outages, and page-migration stalls for unified-memory jobs. The
// fault::Injector interprets a plan against the simulator clock, so a
// chaos run is replayable byte-for-byte from (plan, seed).
//
// Plans are written in a small line format (one fault per line, '#'
// comments, times with a us/ms/s suffix):
//
//   kernel-fault gpu p=0.05                    # 5% of launches fail
//   kernel-fault gpu from=2ms until=3ms        # every launch fails inside
//   device-down gpu from=5ms until=8ms         # outage window
//   bandwidth gpu scale=0.25 from=1ms until=4ms  # HBM at a quarter speed
//   migration-stall scale=0.1 from=2ms until=6ms # UM migration 10x slower
//
// A fleet's node schedules (crashes, drains) are data of the same kind,
// written inline as `node@time` entries that one entry parser reads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ghs/util/error.hpp"
#include "ghs/util/units.hpp"

namespace ghs::fault {

/// A fault plan that parses but that the run finds unusable: a brown-out
/// or stall entry stretches a launch past SimTime's range. The loadgens
/// exit 2 on it, as on a plan that fails to parse.
class PlanError : public Error {
 public:
  using Error::Error;
};

/// Processor a fault targets. Mirrors serve::Placement without depending on
/// the serve layer, so the fault module sits below it.
enum class Target : std::uint8_t { kGpu, kCpu };

const char* target_name(Target target);

/// Half-open simulated-time interval [begin, end).
struct Window {
  SimTime begin = 0;
  SimTime end = 0;

  bool contains(SimTime t) const { return t >= begin && t < end; }
  bool overlaps(SimTime from, SimTime until) const {
    return begin < until && from < end;
  }
  /// A zero-length window means "the whole run".
  bool unbounded() const { return end <= begin; }
};

/// Transient kernel failure: launches on `target` fail with `probability`
/// while the window is active (an unbounded window arms the fault for the
/// whole run; probability 1.0 makes every launch inside the window fail
/// without consuming randomness).
struct KernelFaultSpec {
  Target target = Target::kGpu;
  double probability = 1.0;
  Window window;
};

/// Bandwidth brown-out: the device's effective bandwidth is multiplied by
/// `scale` (0 < scale <= 1) while the window is active, so service times
/// stretch by 1/scale. Overlapping episodes compound.
struct BandwidthEpisode {
  Target target = Target::kGpu;
  double scale = 0.5;
  Window window;
};

/// Device-down outage: every launch that overlaps the window fails, and
/// launches started while the device is down fail fast (the driver returns
/// an error after `FaultPlan::down_error_latency`).
struct OutageWindow {
  Target target = Target::kGpu;
  Window window;
};

/// Page-migration stall: unified-memory jobs served while the window is
/// active see their migration-inclusive service stretched by 1/scale.
struct MigrationStallEpisode {
  double scale = 0.5;
  Window window;
};

struct FaultPlan {
  std::vector<KernelFaultSpec> kernel_faults;
  std::vector<BandwidthEpisode> bandwidth_episodes;
  std::vector<OutageWindow> outages;
  std::vector<MigrationStallEpisode> migration_stalls;
  /// How long a launch attempt on a down device takes to report its error.
  SimTime down_error_latency = 10 * kMicrosecond;

  bool empty() const {
    return kernel_faults.empty() && bandwidth_episodes.empty() &&
           outages.empty() && migration_stalls.empty();
  }
  /// Total fault entries across all kinds.
  std::size_t size() const {
    return kernel_faults.size() + bandwidth_episodes.size() +
           outages.size() + migration_stalls.size();
  }
};

/// Whole-node failure: at `at` the node's devices and queued work vanish;
/// a non-zero `restart_at` brings the node back (empty queue, cold state)
/// after the operator's warm-up window. Interpreted by cluster::Cluster —
/// a standalone service has no peers to recover onto.
struct NodeCrash {
  int node = 0;
  SimTime at = 0;
  SimTime restart_at = 0;  // 0 = never restarts
};

/// Schedule of node crashes for a fleet run. Like FaultPlan this is pure
/// data; the inline spec format is `node@at[:restart_at]`, comma or
/// whitespace separated, e.g. "1@300us:2ms,2@1ms".
struct NodeCrashPlan {
  std::vector<NodeCrash> crashes;

  bool empty() const { return crashes.empty(); }
  std::size_t size() const { return crashes.size(); }
};

/// Scheduled graceful drain: at `at`, stop admitting to `node`, flush its
/// queue to peers, and remove it from the fleet. In-flight work on the
/// node completes lame-duck; a node already dead, draining or departed is
/// left alone. Interpreted by cluster::Cluster.
struct DrainSpec {
  int node = 0;
  SimTime at = 0;
};

/// Parses "2ms" / "150us" / "1.5s" / "400ns" / "7000ps" into picoseconds;
/// throws ghs::Error on malformed input. This is the time grammar every
/// plan format shares.
SimTime parse_duration(const std::string& text);

/// Parses the inline crash spec documented on NodeCrashPlan; throws
/// ghs::Error on malformed entries, negative nodes, or a restart that does
/// not come after its crash. Node indices are validated against the fleet
/// size by the consumer (the parser cannot know it).
NodeCrashPlan parse_crash_plan(const std::string& text);

/// Parses a drain schedule: `node@at` entries in the crash spec's grammar,
/// without the restart; throws ghs::Error on malformed entries, negative
/// nodes, a `:restart` suffix or a zero time.
std::vector<DrainSpec> parse_drain_plan(const std::string& text);

/// Renders the crash plan back into the inline spec (picosecond times, so
/// it round-trips through parse_crash_plan exactly).
std::string format_crash_plan(const NodeCrashPlan& plan);

/// Parses the line format documented above; throws ghs::Error with the
/// offending line number on malformed input.
FaultPlan parse_plan(const std::string& text);

/// Reads and parses a plan file; throws ghs::Error on I/O failure.
FaultPlan load_plan(const std::string& path);

}  // namespace ghs::fault
