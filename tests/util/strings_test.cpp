#include "ghs/util/strings.hpp"

#include <gtest/gtest.h>

#include "ghs/util/error.hpp"

namespace ghs {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyTokens) {
  const auto parts = split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitNoDelimiter) {
  const auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringsTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
  EXPECT_EQ(format_fixed(0.9995, 3), "1.000");
}

TEST(StringsTest, FormatFixedPrintsLargeValuesInFull) {
  EXPECT_EQ(format_fixed(1e60, 6),
            "999999999999999949387135297074018866963645011013410073083904."
            "000000");
}

TEST(StringsTest, FormatFixedRejectsBadDecimals) {
  EXPECT_THROW(format_fixed(1.0, -1), Error);
  EXPECT_THROW(format_fixed(1.0, 13), Error);
}

TEST(StringsTest, PadLeft) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(StringsTest, PadRight) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

}  // namespace
}  // namespace ghs
