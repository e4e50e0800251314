#include "ghs/util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "ghs/util/rng.hpp"

namespace ghs {
namespace {

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div<std::int64_t>(4'194'304'000, 128), 32'768'000);
}

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(65536));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(-4));
  EXPECT_TRUE(is_pow2(std::int64_t{1} << 62));
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(12, 4), 12);
  EXPECT_EQ(round_up(1, 4), 4);
}

TEST(MathTest, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0);
  EXPECT_EQ(log2_pow2(2), 1);
  EXPECT_EQ(log2_pow2(128), 7);
  EXPECT_EQ(log2_pow2(65536), 16);
}

TEST(MathTest, Lerp) {
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 2.0, 0.3), 2.0);
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(lerp(0.0, 10.0, 1.0), 10.0);
}

TEST(MathTest, RelativeDifference) {
  EXPECT_DOUBLE_EQ(relative_difference(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_difference(100.0, 101.0), 0.0099, 1e-4);
  EXPECT_DOUBLE_EQ(relative_difference(0.0, 0.0), 0.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(relative_difference(3.0, 4.0),
                   relative_difference(4.0, 3.0));
}

TEST(MathTest, RoundNonnegMatchesLlround) {
  const double edges[] = {0.0,
                          0x1.fffffffffffffp-2,  // largest double below 0.5
                          0.5,
                          1.5,
                          2.5,
                          0x1.fffffffffffffp0,
                          4503599627370495.5,  // 2^52 - 0.5
                          0x1p52,
                          0x1p52 + 1.0,
                          0x1p53 + 2.0,
                          1e12,
                          8.6e9 + 0.5};
  for (const double x : edges) {
    EXPECT_EQ(round_nonneg(x), std::llround(x)) << x;
    EXPECT_EQ(round_nonneg(std::nextafter(x, 0.0)),
              std::llround(std::nextafter(x, 0.0)))
        << x;
    EXPECT_EQ(round_nonneg(std::nextafter(x, 1e300)),
              std::llround(std::nextafter(x, 1e300)))
        << x;
  }
  // Random doubles across every binade up to 2^62, and halves.
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const double x = std::ldexp(rng.next_double(),
                                static_cast<int>(rng.next_below(124)) - 60);
    ASSERT_EQ(round_nonneg(x), std::llround(x)) << x;
    const double half = std::floor(x) + 0.5;
    ASSERT_EQ(round_nonneg(half), std::llround(half)) << half;
  }
}

}  // namespace
}  // namespace ghs
