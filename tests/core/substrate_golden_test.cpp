// Full-precision golden for the simulated hardware layer (gpu, um, cpu, mem
// and the fluid network). Every Listing 8 point of a small co-execution
// matrix is printed at %.17g and hashed with FNV-1a, one hash per
// (UM policy, variant) group, so a mismatch names the group that moved:
//
//   C1-C4 x A1/A2 at N = 4, at the paper's M and at a small M whose p
//   splits and last page are unaligned, for each of
//     {fault-eager, access-counter threshold 4,
//      access-counter threshold 16 with CPU threshold 3, none}
//   x {plain, prefetch, read-mostly},
//
// plus one baseline-kernel sweep at N = 2 (fault migrations complete one
// wave slice at a time) and the UM/GPU/sim telemetry snapshot and flight
// recorder of the whole matrix. Any speed-up of the substrate must keep
// every hash; a deliberate model change regenerates them (the failure
// message prints the new value).
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ghs/core/platform.hpp"
#include "ghs/core/reduce.hpp"
#include "ghs/core/system_config.hpp"
#include "ghs/telemetry/exporters.hpp"
#include "ghs/telemetry/flight_recorder.hpp"
#include "ghs/telemetry/registry.hpp"
#include "ghs/workload/cases.hpp"

namespace ghs::core {
namespace {

/// About 12.6M elements: a few dozen pages, a partial last page for every
/// element size, and p splits that land mid-page.
constexpr std::int64_t kUnalignedM = 3 * (std::int64_t{1} << 22) + 777;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct Policy {
  const char* name;
  um::MigrationMode mode;
  int gpu_threshold;
  int cpu_threshold;
};

enum class Variant { kPlain, kPrefetch, kReadMostly };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain:
      return "plain";
    case Variant::kPrefetch:
      return "prefetch";
    case Variant::kReadMostly:
      return "read-mostly";
  }
  return "?";
}

struct Group {
  std::string name;
  std::uint64_t expected;
};

// Generated from the per-page UM table this golden was introduced against.
const std::vector<Group>& expected_groups() {
  static const std::vector<Group> groups = {
      {"fault-eager/plain", 0xeb5ec2adf8125a47ull},
      {"fault-eager/prefetch", 0x685834474f108bd8ull},
      {"fault-eager/read-mostly", 0xde8fe7e71208fa7aull},
      {"access-counter-4/plain", 0x01f9035df84cc362ull},
      {"access-counter-4/prefetch", 0x0abac9a05dbe69efull},
      {"access-counter-4/read-mostly", 0xde8fe7e71208fa7aull},
      {"access-counter-16-cpu-3/plain", 0x3107d86e7bb344c5ull},
      {"access-counter-16-cpu-3/prefetch", 0xdca1457c36ec39ceull},
      {"access-counter-16-cpu-3/read-mostly", 0xde8fe7e71208fa7aull},
      {"none/plain", 0xfd856bbad22b10c9ull},
      {"none/prefetch", 0xdba3d5beec14d383ull},
      {"none/read-mostly", 0xde8fe7e71208fa7aull},
      {"fault-eager/baseline-kernel", 0x0af651092497803bull},
      {"telemetry", 0x628dd3d4da958325ull},
  };
  return groups;
}

/// Appends one line per point of `result`, every number at full precision.
void print_points(std::string& out, const char* label,
                  const HeteroBenchmarkResult& result) {
  for (const auto& p : result.points) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s p=%.17g elapsed_ps=%" PRId64 " bytes_per_s=%.17g "
                  "gpu_remote=%" PRId64 " cpu_remote=%" PRId64 "\n",
                  label, p.cpu_part, static_cast<std::int64_t>(p.elapsed),
                  p.bandwidth.bytes_per_second,
                  static_cast<std::int64_t>(p.gpu_remote_bytes),
                  static_cast<std::int64_t>(p.cpu_remote_bytes));
    out += line;
  }
}

HeteroBenchmarkResult run_point_set(const SystemConfig& config,
                                    const telemetry::Sink& sink,
                                    const HeteroBenchmark& bench) {
  Platform platform(config);
  platform.set_telemetry(sink);
  return run_hetero_benchmark(platform, bench);
}

TEST(SubstrateGoldenTest, ListingEightPointsAreBitIdentical) {
  const Policy policies[] = {
      {"fault-eager", um::MigrationMode::kFaultEager, 16, 0},
      {"access-counter-4", um::MigrationMode::kAccessCounter, 4, 0},
      {"access-counter-16-cpu-3", um::MigrationMode::kAccessCounter, 16, 3},
      {"none", um::MigrationMode::kNone, 16, 0},
  };
  const Variant variants[] = {Variant::kPlain, Variant::kPrefetch,
                              Variant::kReadMostly};
  telemetry::Registry registry;
  telemetry::FlightRecorder flight;
  const telemetry::Sink sink{&registry, &flight};

  std::vector<std::pair<std::string, std::string>> groups;
  for (const auto& policy : policies) {
    SystemConfig config = gh200_config();
    config.um.mode = policy.mode;
    config.um.gpu_access_threshold = policy.gpu_threshold;
    config.um.cpu_access_threshold = policy.cpu_threshold;
    for (const Variant variant : variants) {
      std::string text;
      // 0 = the paper's M, whose p splits fall on page boundaries.
      for (const std::int64_t elements : {std::int64_t{0}, kUnalignedM}) {
        for (const auto case_id : workload::all_cases()) {
          for (const AllocSite site : {AllocSite::kA1, AllocSite::kA2}) {
            HeteroBenchmark bench;
            bench.case_id = case_id;
            bench.tuning = paper_best_tuning(case_id);
            bench.site = site;
            bench.cpu_parts = paper_cpu_parts();
            bench.elements = elements;
            bench.iterations = 4;
            bench.prefetch = variant == Variant::kPrefetch;
            bench.read_mostly_advice = variant == Variant::kReadMostly;
            const std::string label =
                std::string(workload::case_spec(case_id).name) + " " +
                alloc_site_name(site) + " M=" + std::to_string(elements);
            print_points(text, label.c_str(),
                         run_point_set(config, sink, bench));
          }
        }
      }
      groups.emplace_back(
          std::string(policy.name) + "/" + variant_name(variant), text);
    }
  }

  {
    HeteroBenchmark bench;
    bench.case_id = workload::CaseId::kC1;
    bench.site = AllocSite::kA2;
    bench.cpu_parts = paper_cpu_parts();
    bench.iterations = 2;
    std::string text;
    print_points(text, "C1 A2",
                 run_point_set(gh200_config(), sink, bench));
    groups.emplace_back("fault-eager/baseline-kernel", text);
  }

  std::ostringstream telemetry_text;
  telemetry::write_json_snapshot(telemetry_text, registry);
  telemetry_text << "\nrecorded=" << flight.total_recorded() << "\n";
  flight.dump(telemetry_text);
  groups.emplace_back("telemetry", telemetry_text.str());

  const auto& expected = expected_groups();
  ASSERT_EQ(groups.size(), expected.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    ASSERT_EQ(groups[i].first, expected[i].name);
    const std::uint64_t hash = fnv1a(groups[i].second);
    char got[32];
    std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", hash);
    EXPECT_EQ(hash, expected[i].expected)
        << "group " << groups[i].first << " moved; its hash is now " << got;
  }
}

}  // namespace
}  // namespace ghs::core
