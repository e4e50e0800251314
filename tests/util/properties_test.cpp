#include "ghs/util/properties.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ghs/util/error.hpp"

namespace ghs {
namespace {

TEST(PropertiesTest, ParsesKeyValueLines) {
  const auto props = Properties::parse(
      "a = 1\n"
      "b.c = hello\n");
  EXPECT_EQ(props.size(), 2u);
  EXPECT_EQ(props.get_int("a").value(), 1);
  EXPECT_EQ(props.get_string("b.c").value(), "hello");
}

TEST(PropertiesTest, IgnoresCommentsAndBlankLines) {
  const auto props = Properties::parse(
      "# header comment\n"
      "\n"
      "x = 5   # trailing comment\n"
      "   \n");
  EXPECT_EQ(props.size(), 1u);
  EXPECT_EQ(props.get_int("x").value(), 5);
}

TEST(PropertiesTest, TrimsWhitespace) {
  const auto props = Properties::parse("  key   =   value with spaces  \n");
  EXPECT_EQ(props.get_string("key").value(), "value with spaces");
}

TEST(PropertiesTest, MissingKeysReturnNullopt) {
  const auto props = Properties::parse("a = 1\n");
  EXPECT_FALSE(props.get_string("missing").has_value());
  EXPECT_FALSE(props.get_double("missing").has_value());
}

TEST(PropertiesTest, TypedGettersValidate) {
  const auto props = Properties::parse(
      "num = 42\n"
      "real = 2.5\n"
      "text = abc\n");
  EXPECT_EQ(props.get_int("num").value(), 42);
  EXPECT_DOUBLE_EQ(props.get_double("real").value(), 2.5);
  EXPECT_THROW(props.get_int("text"), Error);
  EXPECT_THROW(props.get_double("text"), Error);
  EXPECT_THROW(props.get_int("real"), Error);
}

TEST(PropertiesTest, MalformedLinesRejected) {
  EXPECT_THROW(Properties::parse("no equals sign\n"), Error);
  EXPECT_THROW(Properties::parse("= value\n"), Error);
  EXPECT_THROW(Properties::parse("dup = 1\ndup = 2\n"), Error);
}

TEST(PropertiesTest, KeysAreSorted) {
  const auto props = Properties::parse("z = 1\na = 2\nm = 3\n");
  const auto keys = props.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "m");
  EXPECT_EQ(keys[2], "z");
}

TEST(PropertiesTest, LoadFileRoundTrip) {
  const std::string path = "/tmp/ghsum_props_test.properties";
  {
    std::ofstream out(path);
    out << "from.file = 7\n";
  }
  const auto props = Properties::load_file(path);
  EXPECT_EQ(props.get_int("from.file").value(), 7);
  std::remove(path.c_str());
  EXPECT_THROW(Properties::load_file(path), Error);
}

}  // namespace
}  // namespace ghs
