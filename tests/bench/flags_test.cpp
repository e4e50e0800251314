// Edge cases for bench/flags.hpp: the fail-fast path validation that
// every bench output flag funnels through, and the --metrics-out writer.
#include "flags.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace ghs::bench {
namespace {

using ExitCode2 = testing::ExitedWithCode;

TEST(RequireWritablePathTest, EmptyAndBareFilenamesPass) {
  require_writable_path("prog", "");
  require_writable_path("prog", "report.json");  // cwd, no parent to check
}

TEST(RequireWritablePathTest, ExistingDirectoryPasses) {
  require_writable_path("prog", testing::TempDir() + "out.json");
}

TEST(RequireWritablePathTest, MissingParentExits2) {
  const std::string path =
      testing::TempDir() + "ghs_no_such_dir/out.json";
  EXPECT_EXIT(require_writable_path("prog", path), ExitCode2(2),
              "directory");
}

TEST(RequireWritablePathTest, NestedMissingParentsExit2) {
  // Several missing levels: the check must fail on the first missing
  // ancestor, not only a missing leaf directory.
  const std::string path =
      testing::TempDir() + "ghs_missing_a/missing_b/missing_c/out.json";
  EXPECT_EXIT(require_writable_path("prog", path), ExitCode2(2),
              "directory");
}

TEST(OpenOutputTest, OpensAndWrites) {
  const std::string path = testing::TempDir() + "ghs_flags_test.txt";
  {
    auto out = open_output_or_exit("prog", path);
    out << "ok";
  }
  std::ifstream in(path);
  std::string text;
  in >> text;
  EXPECT_EQ(text, "ok");
  std::remove(path.c_str());
}

TEST(OpenOutputTest, UnwritablePathExits2) {
  EXPECT_EXIT(
      open_output_or_exit("prog",
                          testing::TempDir() + "ghs_nodir/deep/out.txt"),
      ExitCode2(2), "");
}

TEST(WriteMetricsFilesTest, SnapshotLeavesOutVolatileInstruments) {
  telemetry::Registry registry;
  registry.counter("ghs_test_total", {}, "steady").inc(3);
  registry.gauge("ghs_test_wall_seconds", {}, "volatile", true).set(1.5);
  const std::string path = testing::TempDir() + "ghs_flags_test.prom";
  write_metrics_files("prog", path, registry);
  const auto read = [](const std::string& file) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string prom = read(path);
  const std::string json = read(path + ".json");
  EXPECT_NE(prom.find("ghs_test_total"), std::string::npos);
  EXPECT_NE(prom.find("ghs_test_wall_seconds"), std::string::npos);
  EXPECT_NE(json.find("ghs_test_total"), std::string::npos);
  EXPECT_EQ(json.find("ghs_test_wall_seconds"), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
}

}  // namespace
}  // namespace ghs::bench
