#include "ghs/util/strings.hpp"

#include <gtest/gtest.h>

#include <sstream>

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

TEST(StringsTest, FormatFixedRejectsBadDecimals) {
  EXPECT_THROW(format_fixed(1.0, -1), Error);
  EXPECT_THROW(format_fixed(1.0, 13), Error);
}

std::string json_escaped(const std::string& text) {
  std::ostringstream os;
  write_json_escaped(os, text);
  return os.str();
}

TEST(StringsTest, JsonEscapesQuoteAndBackslash) {
  EXPECT_EQ(json_escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escaped("plain text {}[]:,"), "plain text {}[]:,");
}

TEST(StringsTest, JsonEscapesEveryControlByte) {
  const char* hex = "0123456789abcdef";
  for (int c = 0; c < 0x20; ++c) {
    std::string expected;
    switch (c) {
      case '\b':
        expected = "\\b";
        break;
      case '\t':
        expected = "\\t";
        break;
      case '\n':
        expected = "\\n";
        break;
      case '\f':
        expected = "\\f";
        break;
      case '\r':
        expected = "\\r";
        break;
      default:
        expected = std::string("\\u00") + hex[c >> 4] + hex[c & 0xf];
    }
    EXPECT_EQ(json_escaped(std::string(1, static_cast<char>(c))), expected)
        << "byte " << c;
  }
  EXPECT_EQ(json_escaped(std::string(1, '\x20')), " ");
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
