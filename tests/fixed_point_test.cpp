// Tests for the runtime Q-format fixed-point arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/rng.h"

namespace db {
namespace {

TEST(FixedFormat, ConstructionValidation) {
  EXPECT_NO_THROW(FixedFormat(16, 8));
  EXPECT_NO_THROW(FixedFormat(2, 0));
  EXPECT_NO_THROW(FixedFormat(32, 31));
  EXPECT_THROW(FixedFormat(1, 0), Error);
  EXPECT_THROW(FixedFormat(33, 8), Error);
  EXPECT_THROW(FixedFormat(16, 16), Error);
  EXPECT_THROW(FixedFormat(16, -1), Error);
}

TEST(FixedFormat, RangesQ7_8) {
  FixedFormat fmt(16, 8);
  EXPECT_EQ(fmt.raw_max(), 32767);
  EXPECT_EQ(fmt.raw_min(), -32768);
  EXPECT_NEAR(fmt.value_max(), 127.996, 0.001);
  EXPECT_NEAR(fmt.value_min(), -128.0, 1e-9);
  EXPECT_NEAR(fmt.resolution(), 1.0 / 256.0, 1e-12);
  EXPECT_EQ(fmt.ToString(), "Q7.8");
}

TEST(FixedFormat, QuantizeRoundsToNearest) {
  FixedFormat fmt(16, 8);
  EXPECT_EQ(fmt.Quantize(1.0), 256);
  EXPECT_EQ(fmt.Quantize(0.5), 128);
  EXPECT_EQ(fmt.Quantize(1.0 / 512.0), 1);   // half LSB rounds away
  EXPECT_EQ(fmt.Quantize(-1.0 / 512.0), -1);
  EXPECT_EQ(fmt.Quantize(0.0), 0);
}

TEST(FixedFormat, QuantizeSaturates) {
  FixedFormat fmt(8, 4);
  EXPECT_EQ(fmt.Quantize(1e9), fmt.raw_max());
  EXPECT_EQ(fmt.Quantize(-1e9), fmt.raw_min());
  EXPECT_EQ(fmt.Quantize(std::nan("")), 0);
}

TEST(FixedFormat, RoundTripErrorBoundedByHalfLsb) {
  FixedFormat fmt(16, 10);
  for (double v : {0.113, -3.7, 12.25, -0.001, 31.9}) {
    EXPECT_LE(std::fabs(fmt.RoundTrip(v) - v), fmt.resolution() / 2 + 1e-12)
        << "value " << v;
  }
}

TEST(FixedFormat, AddSaturates) {
  FixedFormat fmt(8, 0);  // range [-128, 127]
  EXPECT_EQ(fmt.Add(100, 100), 127);
  EXPECT_EQ(fmt.Add(-100, -100), -128);
  EXPECT_EQ(fmt.Add(50, 20), 70);
}

TEST(FixedFormat, MulMatchesRealArithmetic) {
  FixedFormat fmt(16, 8);
  const std::int64_t a = fmt.Quantize(1.5);
  const std::int64_t b = fmt.Quantize(-2.25);
  EXPECT_NEAR(fmt.Dequantize(fmt.Mul(a, b)), -3.375, fmt.resolution());
}

TEST(FixedFormat, MulSaturates) {
  FixedFormat fmt(8, 4);  // max ~7.94
  const std::int64_t big = fmt.Quantize(7.9);
  EXPECT_EQ(fmt.Mul(big, big), fmt.raw_max());
  const std::int64_t neg = fmt.Quantize(-8.0);
  EXPECT_EQ(fmt.Mul(neg, fmt.Quantize(7.9)), fmt.raw_min());
}

// Regression: Mul used to renormalise with a bare `+ half; >> frac`,
// which rounds negative half-LSB ties toward +inf while Quantize rounds
// half away from zero.  The raw product -1 << (frac-1) is exactly -0.5
// LSB and must come back as -1, not 0.
TEST(FixedFormat, MulNegativeTieRoundsAwayFromZero) {
  FixedFormat fmt(16, 8);
  // raw -1 * raw 128 -> product -128 = -0.5 LSB after renormalisation.
  EXPECT_EQ(fmt.Mul(-1, 128), -1);
  EXPECT_EQ(fmt.Mul(1, 128), 1);  // +0.5 LSB rounds to +1
  // -1.5 LSB (product -384) rounds away to -2, not truncated to -1.
  EXPECT_EQ(fmt.Mul(-3, 128), -2);
  EXPECT_EQ(fmt.Mul(3, 128), 2);
  // Non-tie values are unaffected: -0.4995 LSB rounds to 0.
  EXPECT_EQ(fmt.Mul(-1, 127), 0);
}

TEST(FixedFormat, MulTieMatchesQuantizeOfRealProduct) {
  // At every representable half-LSB tie the renormalised product must
  // agree with quantising the real-valued product — the two rounders
  // the datapath exposes (weight-load Quantize and MAC writeback) are
  // the same hardware rounder.
  for (const auto& [total, frac] :
       {std::pair{8, 4}, std::pair{16, 8}, std::pair{24, 12}}) {
    FixedFormat fmt(total, frac);
    const std::int64_t half = std::int64_t{1} << (frac - 1);
    for (std::int64_t a : {-5L, -3L, -1L, 1L, 3L, 5L}) {
      const std::int64_t got = fmt.Mul(a, half);
      const double real =
          fmt.Dequantize(a) * fmt.Dequantize(half);
      EXPECT_EQ(got, fmt.Quantize(real))
          << fmt.ToString() << " a=" << a;
    }
  }
}

TEST(FixedFormat, MulByOneIsIdentityUpToRounding) {
  FixedFormat fmt(16, 8);
  const std::int64_t one = fmt.Quantize(1.0);
  for (std::int64_t raw : {0L, 37L, -1000L, 32000L, -32768L})
    EXPECT_EQ(fmt.Mul(raw, one), fmt.Saturate(raw));
}

TEST(FixedFormat, SaturateClamps) {
  FixedFormat fmt(12, 4);
  EXPECT_EQ(fmt.Saturate(1 << 20), fmt.raw_max());
  EXPECT_EQ(fmt.Saturate(-(1 << 20)), fmt.raw_min());
  EXPECT_EQ(fmt.Saturate(5), 5);
}

TEST(FixedVector, QuantizeDequantizeVectors) {
  FixedFormat fmt(16, 8);
  const std::vector<float> values = {0.5f, -1.25f, 3.0f};
  const auto raw = QuantizeVector(fmt, values);
  ASSERT_EQ(raw.size(), 3u);
  const auto back = DequantizeVector(fmt, raw);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(back[i], values[i], fmt.resolution());
}

TEST(FixedVector, QuantizationRmseBounded) {
  FixedFormat fmt(16, 8);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i)
    values.push_back(static_cast<float>(std::sin(i * 0.1) * 10));
  const double rmse = QuantizationRmse(fmt, values);
  EXPECT_GT(rmse, 0.0);
  EXPECT_LE(rmse, fmt.resolution());  // RMS error < 1 LSB
}

TEST(FixedVector, EmptyRmseIsZero) {
  FixedFormat fmt(16, 8);
  EXPECT_EQ(QuantizationRmse(fmt, {}), 0.0);
}

// Property sweep: round-trip error bounded across formats.
class FixedFormatSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FixedFormatSweep, RoundTripBounded) {
  const auto [total, frac] = GetParam();
  FixedFormat fmt(total, frac);
  for (int i = -50; i <= 50; ++i) {
    const double v = fmt.value_max() * i / 55.0;
    EXPECT_LE(std::fabs(fmt.RoundTrip(v) - v),
              fmt.resolution() / 2 + 1e-12);
  }
}

TEST_P(FixedFormatSweep, AddCommutes) {
  const auto [total, frac] = GetParam();
  FixedFormat fmt(total, frac);
  const std::int64_t a = fmt.Quantize(fmt.value_max() * 0.3);
  const std::int64_t b = fmt.Quantize(fmt.value_min() * 0.7);
  EXPECT_EQ(fmt.Add(a, b), fmt.Add(b, a));
}

TEST_P(FixedFormatSweep, MulCommutes) {
  const auto [total, frac] = GetParam();
  FixedFormat fmt(total, frac);
  const std::int64_t a = fmt.Quantize(1.7);
  const std::int64_t b = fmt.Quantize(-0.3);
  EXPECT_EQ(fmt.Mul(a, b), fmt.Mul(b, a));
}

// The ldexp/floor/ceil quantiser that FixedFormat::Quantize replaced,
// kept verbatim as the reference the inline branch-free one must match.
std::int64_t ReferenceQuantize(const FixedFormat& fmt, double value) {
  if (std::isnan(value)) return 0;
  const double scaled = std::ldexp(value, fmt.frac_bits());
  const double rounded = scaled >= 0 ? std::floor(scaled + 0.5)
                                     : std::ceil(scaled - 0.5);
  if (rounded >= static_cast<double>(fmt.raw_max())) return fmt.raw_max();
  if (rounded <= static_cast<double>(fmt.raw_min())) return fmt.raw_min();
  return static_cast<std::int64_t>(rounded);
}

TEST(FixedFormat, QuantizeMatchesReferenceForEveryWidth) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(20160605);
  for (int total = 2; total <= 32; ++total) {
    for (int frac : {0, total / 2, total - 1}) {
      const FixedFormat fmt(total, frac);
      const double lsb = fmt.resolution();
      std::vector<double> probes = {
          std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0,
          -0.0, std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max()};
      // +-0.5 LSB ties around zero, a few raw steps and both bounds.
      for (std::int64_t raw : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, std::int64_t{2},
                               fmt.raw_max(), fmt.raw_max() - 1,
                               fmt.raw_min(), fmt.raw_min() + 1}) {
        const double centre = fmt.Dequantize(raw);
        for (double tie : {centre + lsb / 2, centre - lsb / 2})
          probes.insert(probes.end(),
                        {tie, std::nextafter(tie, kInf),
                         std::nextafter(tie, -kInf)});
      }
      // One ulp either side of the saturation bounds (as real values).
      for (double bound : {fmt.value_max(), fmt.value_min()})
        probes.insert(probes.end(), {bound, std::nextafter(bound, kInf),
                                     std::nextafter(bound, -kInf)});
      // Seeded random floats: in range, beyond range, and raw bit
      // patterns (every exponent, subnormals included).
      for (int i = 0; i < 2000; ++i) {
        probes.push_back(rng.Uniform(2 * fmt.value_min(),
                                     2 * fmt.value_max()));
        probes.push_back(static_cast<float>(
            rng.Uniform(fmt.value_min(), fmt.value_max())));
        probes.push_back(std::bit_cast<float>(
            static_cast<std::uint32_t>(rng.Next())));
      }
      for (double v : probes)
        ASSERT_EQ(fmt.Quantize(v), ReferenceQuantize(fmt, v))
            << fmt.ToString() << " value " << v;
    }
  }
}

TEST(FixedFormat, ToStringNamesIntegerAndFractionBits) {
  EXPECT_EQ(FixedFormat(16, 8).ToString(), "Q7.8");
  EXPECT_EQ(FixedFormat(32, 0).ToString(), "Q31.0");
  EXPECT_EQ(FixedFormat(2, 1).ToString(), "Q0.1");
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FixedFormatSweep,
    ::testing::Values(std::pair{8, 4}, std::pair{12, 6}, std::pair{16, 8},
                      std::pair{16, 12}, std::pair{24, 16},
                      std::pair{32, 16}),
    [](const auto& info) {
      return "Q" + std::to_string(info.param.first - info.param.second - 1) +
             "_" + std::to_string(info.param.second);
    });

}  // namespace
}  // namespace db
