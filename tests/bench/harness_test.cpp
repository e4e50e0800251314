// Edge cases for the shared loadgen harness in bench/harness.hpp: flag
// validation is exit-2 (death tests), and the scrape/series plumbing must
// behave on degenerate runs (no sim time, an interval longer than the run).
#include "harness.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ghs/cluster/router.hpp"
#include "ghs/sim/simulator.hpp"
#include "ghs/telemetry/registry.hpp"

namespace ghs::bench {
namespace {

using ExitCode2 = testing::ExitedWithCode;

constexpr LoadgenInfo kInfo{.program = "prog",
                            .description = "harness under test",
                            .run_key = "policy",
                            .policy = "fifo",
                            .policy_help = "fifo|sjf|bandwidth",
                            .jobs = 200};

/// Parses `args` through a Harness, as a loadgen's main does.
void parse(Harness& harness, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  harness.parse_or_exit(static_cast<int>(args.size()), args.data());
}

void parse_shared_flags(std::vector<const char*> args) {
  Harness harness(kInfo);
  parse(harness, std::move(args));
}

std::string write_plan(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

TEST(HarnessFlagsTest, DefaultsBuildAnUninstrumentedRun) {
  Harness harness(kInfo);
  parse(harness, {"--depth=32", "--um-fraction=0.5", "--seed=9"});
  const serve::OpenLoopOptions open = harness.open_loop();
  EXPECT_EQ(open.jobs, 200);
  EXPECT_EQ(open.seed, 9u);
  EXPECT_EQ(open.shape.min_log2_elements, 16);
  EXPECT_EQ(open.shape.max_log2_elements, 21);
  EXPECT_DOUBLE_EQ(open.shape.um_fraction, 0.5);
  EXPECT_EQ(harness.node_options().queue_depth, 32u);
  EXPECT_FALSE(harness.sink());
  EXPECT_EQ(harness.fault_plan(), nullptr);
  EXPECT_TRUE(harness.outputs().slo_objectives.empty());
}

TEST(HarnessFlagsTest, BuiltinPlanAndOutputsAttach) {
  Harness harness(kInfo);
  const std::string metrics = testing::TempDir() + "ghs_harness_test.prom";
  const std::string metrics_flag = "--metrics-out=" + metrics;
  parse(harness, {"--plan=builtin", metrics_flag.c_str(), "--slo"});
  ASSERT_NE(harness.fault_plan(), nullptr);
  EXPECT_EQ(harness.fault_plan()->size(), 4u);
  EXPECT_TRUE(harness.sink());
  EXPECT_EQ(harness.outputs().slo_objectives.size(), 2u);
}

TEST(HarnessFlagsTest, MissingPlanExits2) {
  const std::string flag = "--plan=" + testing::TempDir() + "ghs_no_such.plan";
  EXPECT_EXIT(parse_shared_flags({flag.c_str()}), ExitCode2(2),
              "prog: .*cannot read fault plan");
}

TEST(HarnessFlagsTest, MalformedPlanExits2) {
  const std::string flag =
      "--plan=" + write_plan("ghs_banana.plan", "kernel-fault gpu p=banana\n");
  EXPECT_EXIT(parse_shared_flags({flag.c_str()}), ExitCode2(2),
              "prog: .*p='banana' must be in \\[0, 1\\]");
}

TEST(HarnessFlagsTest, UnknownPolicyExits2) {
  Harness harness(kInfo);
  parse(harness, {});
  harness.require_policy("bandwidth");  // survives
  EXPECT_EXIT(harness.require_policy("bogus"), ExitCode2(2),
              "prog: .*unknown policy 'bogus'");
}

TEST(HarnessFlagsTest, UnknownRouterExits2) {
  EXPECT_EQ(parse_flag_or_exit(
                "prog", [] { return cluster::parse_router_policy("p2c"); }),
            cluster::RouterPolicy::kP2c);
  EXPECT_EXIT(parse_flag_or_exit(
                  "prog", [] { return cluster::parse_router_policy("bogus"); }),
              ExitCode2(2), "prog: .*unknown router policy 'bogus'");
}

TEST(HarnessFlagsTest, InvertedOrOutOfRangeLog2Exits2) {
  EXPECT_EXIT(parse_shared_flags({"--min-log2=30", "--max-log2=10"}),
              ExitCode2(2), "--max-log2 must be in \\[30, 39\\], got 10");
  EXPECT_EXIT(parse_shared_flags({"--min-log2=0"}), ExitCode2(2),
              "--min-log2 must be in \\[1, 39\\], got 0");
  EXPECT_EXIT(parse_shared_flags({"--max-log2=40"}), ExitCode2(2),
              "--max-log2 must be in \\[16, 39\\], got 40");
}

TEST(HarnessFlagsTest, NegativeDeadlineExits2) {
  EXPECT_EXIT(parse_shared_flags({"--deadline-us=-5"}), ExitCode2(2),
              "--deadline-us must be >= 0, got -5");
}

TEST(HarnessFlagsTest, NegativeSloLatencyExits2) {
  EXPECT_EXIT(parse_shared_flags({"--slo", "--slo-latency-ms=-1"}),
              ExitCode2(2), "--slo-latency-ms must be > 0, got -1");
}

TEST(RequireInRangeTest, FleetTenantsMustBePositive) {
  // cluster_loadgen hashes job ids modulo --tenants.
  const long long max_tenants = std::numeric_limits<int>::max();
  EXPECT_EXIT(require_in_range("prog", "--tenants", 0, 1, max_tenants),
              ExitCode2(2), "--tenants must be in \\[1, 2147483647\\], got 0");
  EXPECT_EXIT(require_in_range("prog", "--tenants", -3, 1, max_tenants),
              ExitCode2(2), "got -3");
  require_in_range("prog", "--tenants", 1, 1, max_tenants);  // survives
}

TEST(RequireInRangeTest, ClosedLoopTenantsNeedAJobAndASlotEach) {
  // serve_loadgen --closed bounds --tenants by min(--jobs, --depth).
  EXPECT_EXIT(require_in_range("prog", "--tenants", 0, 1, 64), ExitCode2(2),
              "--tenants must be in \\[1, 64\\], got 0");
  EXPECT_EXIT(require_in_range("prog", "--tenants", 100, 1, 64), ExitCode2(2),
              "--tenants must be in \\[1, 64\\], got 100");
  EXPECT_EXIT(require_in_range("prog", "--tenants", 300, 1, 200),
              ExitCode2(2), "--tenants must be in \\[1, 200\\], got 300");
  require_in_range("prog", "--tenants", 64, 1, 64);  // boundary survives
}

TEST(RequireNonNegativeTest, RejectsNegativeOnly) {
  EXPECT_EXIT(require_non_negative("prog", "--think-us", -3), ExitCode2(2),
              "--think-us must be >= 0, got -3");
  require_non_negative("prog", "--think-us", 0);  // survives
}

/// A drained target whose report says `served` of 3 submitted jobs were
/// served and none rejected or shed.
struct FakeTarget {
  std::int64_t served = 3;
  profile::ConservationTotals conservation_totals() const { return {}; }
  serve::ServiceReport report() const {
    serve::ServiceReport report;
    report.submitted = 3;
    report.served = served;
    return report;
  }
};

TEST(RunTest, AttachesInjectorAndRecorderOnlyWhenAsked) {
  Harness plain(kInfo);
  parse(plain, {});
  serve::ServiceOptions node = plain.node_options();
  const bench::Run bare(plain, plain.fault_plan(), node, plain.outputs());
  EXPECT_EQ(node.injector, nullptr);
  EXPECT_EQ(node.profile, nullptr);

  Harness chaos(kInfo);
  parse(chaos, {"--plan=builtin", "--cost-report"});
  serve::ServiceOptions chaos_node = chaos.node_options();
  const bench::Run run(chaos, chaos.fault_plan(), chaos_node,
                       chaos.outputs());
  ASSERT_NE(chaos_node.injector, nullptr);
  EXPECT_EQ(chaos_node.injector->plan().size(), 4u);
  EXPECT_NE(chaos_node.profile, nullptr);
}

TEST(RunTest, FinishChecksJobConservation) {
  Harness harness(kInfo);
  parse(harness, {});
  serve::ServiceOptions node = harness.node_options();
  bench::Run run(harness, nullptr, node, harness.outputs());
  RunSections sections;
  const auto no_slo = [](slo::Monitor&) {};
  EXPECT_EQ(run.finish("fifo", FakeTarget{}, no_slo, &sections).served, 3);
  EXPECT_EQ(sections.label, "fifo");
  EXPECT_THROW(run.finish("fifo", FakeTarget{.served = 1}, no_slo, nullptr),
               Error);
}

TEST(RequirePositiveTest, RejectsZeroAndNegative) {
  EXPECT_EXIT(require_positive("prog", "--jobs", 0), ExitCode2(2),
              "--jobs must be > 0");
  EXPECT_EXIT(require_positive("prog", "--rate", -1.5), ExitCode2(2),
              "--rate must be > 0");
  require_positive("prog", "--jobs", 1);  // survives
}

TEST(RequireFractionTest, RejectsOutOfRange) {
  EXPECT_EXIT(require_fraction("prog", "--trace-sample", -0.01), ExitCode2(2),
              "--trace-sample must be in \\[0, 1\\]");
  EXPECT_EXIT(require_fraction("prog", "--trace-sample", 1.5), ExitCode2(2),
              "--trace-sample must be in \\[0, 1\\]");
  require_fraction("prog", "--trace-sample", 0.0);  // boundaries survive
  require_fraction("prog", "--trace-sample", 1.0);
}

TEST(ScrapeSettingsTest, NegativeIntervalExits2) {
  EXPECT_EXIT(scrape_settings_or_exit("prog", -1, ""), ExitCode2(2),
              "--scrape-interval must be >= 0");
}

TEST(ScrapeSettingsTest, SeriesOutWithoutIntervalExits2) {
  EXPECT_EXIT(scrape_settings_or_exit("prog", 0, "/tmp/x.json"), ExitCode2(2),
              "--series-out requires --scrape-interval > 0");
}

TEST(ScrapeSettingsTest, ValidSettingsConvertToSimTime) {
  const auto settings = scrape_settings_or_exit("prog", 25, "");
  EXPECT_EQ(settings.interval, 25 * kMicrosecond);
  EXPECT_TRUE(settings.enabled());
  EXPECT_FALSE(scrape_settings_or_exit("prog", 0, "").enabled());
}

TEST(ProfileSettingsTest, NegativeIntervalExits2) {
  EXPECT_EXIT(profile_settings_or_exit("prog", -5, "", false), ExitCode2(2),
              "--profile-interval must be >= 0");
}

TEST(ProfileSettingsTest, ProfileOutWithoutIntervalExits2) {
  EXPECT_EXIT(profile_settings_or_exit("prog", 0, "/tmp/x.folded", false),
              ExitCode2(2),
              "--profile-out requires --profile-interval > 0");
}

TEST(ProfileSettingsTest, CostReportAloneEnablesAttributionOnly) {
  const auto settings = profile_settings_or_exit("prog", 0, "", true);
  EXPECT_TRUE(settings.enabled());
  EXPECT_FALSE(settings.sampling());
  const auto off = profile_settings_or_exit("prog", 0, "", false);
  EXPECT_FALSE(off.enabled());
}

TEST(ScraperEdgeTest, ZeroWorkRunSeesOnlyTheScrapersOwnTick) {
  // No workload events: the scraper's own first tick is the only thing
  // in the queue, so the run ends after one interval with the tick
  // sample plus finish()'s trailing sample — and every delta is zero
  // because start() baselined the pre-run count.
  sim::Simulator sim;
  telemetry::Registry registry;
  registry.counter("c").inc(3);
  timeseries::Tsdb store;
  timeseries::ScraperOptions options;
  options.interval = 10 * kMicrosecond;
  timeseries::Scraper scraper(sim, registry, store, options);
  scraper.start();
  sim.run();
  scraper.finish();
  const timeseries::Series* series = store.find("c");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->raw().size(), 2u);
  EXPECT_EQ(series->raw()[0].at, 10 * kMicrosecond);
  EXPECT_DOUBLE_EQ(series->total_sum(), 0.0);
}

TEST(ScraperEdgeTest, IntervalLongerThanRunStillCapturesTotals) {
  sim::Simulator sim;
  telemetry::Registry registry;
  auto& counter = registry.counter("c");
  sim.schedule_at(5 * kMicrosecond, [&] { counter.inc(7); });
  timeseries::Tsdb store;
  timeseries::ScraperOptions options;
  options.interval = 1000 * kMicrosecond;  // run lasts 5us
  timeseries::Scraper scraper(sim, registry, store, options);
  scraper.start();
  sim.run();
  scraper.finish();
  const timeseries::Series* series = store.find("c");
  ASSERT_NE(series, nullptr);
  EXPECT_DOUBLE_EQ(series->total_sum(), 7.0);
}

TEST(WriteSeriesFileTest, EmptyPathIsNoOp) {
  sim::Simulator sim;
  telemetry::Registry registry;
  timeseries::Tsdb store;
  timeseries::ScraperOptions options;
  options.interval = kMicrosecond;
  timeseries::Scraper scraper(sim, registry, store, options);
  scraper.start();
  sim.run();
  scraper.finish();
  ScrapeSettings settings;  // no series_path
  settings.interval = kMicrosecond;
  write_series_file("prog", settings, store, scraper);  // must not crash
}

TEST(WriteSeriesFileTest, ZeroScrapeRunWritesValidJson) {
  sim::Simulator sim;
  telemetry::Registry registry;
  registry.counter("c");
  timeseries::Tsdb store;
  timeseries::ScraperOptions options;
  options.interval = 10 * kMicrosecond;
  timeseries::Scraper scraper(sim, registry, store, options);
  scraper.start();
  sim.run();
  scraper.finish();
  const std::string path = testing::TempDir() + "ghs_scrape_zero.json";
  ScrapeSettings settings;
  settings.interval = options.interval;
  settings.series_path = path;
  write_series_file("prog", settings, store, scraper);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("ghs-series-v1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ghs::bench
