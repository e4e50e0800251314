#include "ghs/util/writer.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ghs/util/error.hpp"
#include "ghs/util/rng.hpp"

namespace ghs {
namespace {

template <class T>
std::string written(const T& value) {
  std::ostringstream os;
  {
    Writer w(os);
    w << value;
  }
  return os.str();
}

std::string printf_fixed(double value, int decimals) {
  std::vector<char> buf(512);
  const int n = std::snprintf(buf.data(), buf.size(), "%.*f", decimals, value);
  return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string printf_general(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Random bit patterns (every exponent, NaNs and infinities among them),
/// exact ties at each precision, signed zeros, subnormals and the ends of
/// the range.
std::vector<double> drawn_doubles() {
  Rng rng(20260419);
  std::vector<double> values = {
      0.0,     -0.0,     DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      DBL_TRUE_MIN,      -DBL_TRUE_MIN,     1e56,    1e60,
      0x1p63,  -0x1p63,  0x1p63 - 1024.0,   -0x1p63 + 1024.0,
      1e300,   -1e300,   0.9995,  2.5,      -2.5,    0.125,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 4000; ++i) values.push_back(from_bits(rng.next_u64()));
  for (int i = 0; i < 1000; ++i) {
    // Subnormals: a zero exponent field under a random mantissa and sign.
    values.push_back(from_bits(rng.next_u64() & 0x800fffffffffffffULL));
  }
  for (int d = 0; d <= 12; ++d) {
    // (2k + 1) / 2^(d + 1) times 10^d ends in exactly .5, a tie at d
    // decimals that "%.*f" breaks to even.
    for (int i = 0; i < 200; ++i) {
      const double k = static_cast<double>(rng.next_u64() % 100000);
      const double tie = (2.0 * k + 1.0) / std::ldexp(1.0, d + 1);
      values.push_back(i % 2 == 0 ? tie : -tie);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    // Whole numbers of every magnitude, past 2^63 too.
    const double whole = std::trunc(std::ldexp(
        rng.next_double(), static_cast<int>(rng.next_below(70))));
    values.push_back(i % 2 == 0 ? whole : -whole);
  }
  for (int i = 0; i < 2000; ++i) {
    // Magnitudes the exports print: latencies, rates, gigabytes.
    values.push_back((rng.next_double() - 0.5) *
                     std::pow(10.0, static_cast<double>(rng.next_u64() % 16)));
  }
  return values;
}

TEST(WriterTest, FixedMatchesPrintfAtEveryPrecision) {
  const std::vector<double> values = drawn_doubles();
  for (int d = 0; d <= 12; ++d) {
    for (const double value : values) {
      ASSERT_EQ(written(Fixed{value, d}), printf_fixed(value, d))
          << "decimals " << d << " bits of " << value;
    }
  }
}

TEST(WriterTest, FixedPrintsTheLargestDoubleInFull) {
  const std::string text = written(Fixed{-DBL_MAX, 12});
  EXPECT_EQ(text.size(), kMaxFixedChars);
  EXPECT_EQ(text, printf_fixed(-DBL_MAX, 12));
}

TEST(WriterTest, FixedRejectsBadDecimals) {
  EXPECT_THROW(written(Fixed{1.0, -1}), Error);
  EXPECT_THROW(written(Fixed{1.0, 13}), Error);
}

TEST(WriterTest, GeneralMatchesPrintf) {
  for (const double value : drawn_doubles()) {
    ASSERT_EQ(written(General{value}), printf_general(value)) << value;
  }
}

TEST(WriterTest, IntegersMatchTheStream) {
  Rng rng(5);
  std::vector<std::int64_t> values = {0, 1, -1,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.next_u64()));
  }
  for (const std::int64_t value : values) {
    std::ostringstream os;
    os << value;
    ASSERT_EQ(written(value), os.str());
  }
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  std::ostringstream os;
  os << top << static_cast<std::int16_t>(-7) << static_cast<std::size_t>(42);
  EXPECT_EQ(written(top) + written(static_cast<std::int16_t>(-7)) +
                written(static_cast<std::size_t>(42)),
            os.str());
}

TEST(WriterTest, MicrosAreExactPicoseconds) {
  EXPECT_EQ(written(Micros{0}), "0.000000");
  EXPECT_EQ(written(Micros{1}), "0.000001");
  EXPECT_EQ(written(Micros{1'234'567}), "1.234567");
  EXPECT_EQ(written(Micros{std::numeric_limits<SimTime>::max()}),
            "9223372036854.775807");
}

TEST(WriterTest, Hex16IsSixteenLowercaseDigits) {
  EXPECT_EQ(written(Hex16{0x1}), "0000000000000001");
  EXPECT_EQ(written(Hex16{0xdeadbeefcafef00dULL}), "deadbeefcafef00d");
}

TEST(WriterTest, JsonEscapesQuoteAndBackslash) {
  EXPECT_EQ(written(JsonEscaped{"say \"hi\""}), "say \\\"hi\\\"");
  EXPECT_EQ(written(JsonEscaped{"a\\b"}), "a\\\\b");
  EXPECT_EQ(written(JsonEscaped{"plain text {}[]:,"}), "plain text {}[]:,");
}

TEST(WriterTest, JsonEscapesEveryControlByte) {
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
    const std::string text(1, static_cast<char>(c));
    EXPECT_EQ(written(JsonEscaped{text}), expected) << "byte " << c;
  }
  EXPECT_EQ(written(JsonEscaped{"\x20"}), " ");
  EXPECT_EQ(written(JsonEscaped{"\x7f\xc3\xa9"}), "\x7f\xc3\xa9");
}

/// Counts the writes a Writer hands its stream.
struct CountingBuf : std::stringbuf {
  std::vector<std::streamsize> writes;
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.push_back(n);
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(WriterTest, HandsOverChunksAndFlushesOnDestruction) {
  CountingBuf buf;
  std::ostream os(&buf);
  std::string expected;
  {
    Writer w(os);
    const std::string long_text(3 * Writer::kChunk + 17, 'x');
    w << long_text;
    expected += long_text;
    for (int i = 0; i < 20000; ++i) {
      w << "\"" << JsonEscaped{"a\"b\n"} << "\"," << i << ","
        << Fixed{i / 7.0, 6} << ",";
      expected += "\"a\\\"b\\n\"," + std::to_string(i) + "," +
                  printf_fixed(i / 7.0, 6) + ",";
    }
    EXPECT_FALSE(buf.writes.empty());
  }
  EXPECT_EQ(buf.str(), expected);
  ASSERT_GT(buf.writes.size(), 4u);
  for (const std::streamsize n : buf.writes) {
    EXPECT_LE(n, static_cast<std::streamsize>(Writer::kChunk));
  }
}

TEST(WriterTest, ExplicitFlushHandsOverWhatIsBuffered) {
  std::ostringstream os;
  Writer w(os);
  w << "partial " << 7;
  EXPECT_EQ(os.str(), "");
  w.flush();
  EXPECT_EQ(os.str(), "partial 7");
}

}  // namespace
}  // namespace ghs
