// Tests for Approx LUT content generation and evaluation (paper §3.3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "core/approx_lut.h"

namespace db {
namespace {

ApproxLutSpec SigmoidSpec(std::int64_t entries, bool interpolate) {
  ApproxLutSpec spec;
  spec.function = LutFunction::kSigmoid;
  spec.entries = entries;
  spec.interpolate = interpolate;
  spec.format = FixedFormat(16, 12);
  spec.in_min = -8.0;
  spec.in_max = 8.0;
  return spec;
}

TEST(ApproxLut, GenerateValidation) {
  EXPECT_THROW(ApproxLut::Generate(SigmoidSpec(100, true)), Error);
  EXPECT_THROW(ApproxLut::Generate(SigmoidSpec(1, true)), Error);
  ApproxLutSpec empty = SigmoidSpec(64, true);
  empty.in_min = 1.0;
  empty.in_max = 1.0;
  EXPECT_THROW(ApproxLut::Generate(empty), Error);
}

TEST(ApproxLut, TableSizeMatchesSpec) {
  const ApproxLut lut = ApproxLut::Generate(SigmoidSpec(64, true));
  EXPECT_EQ(lut.table().size(), 64u);
}

TEST(ApproxLut, SigmoidValuesAccurate) {
  const ApproxLut lut = ApproxLut::Generate(SigmoidSpec(256, true));
  for (double x : {-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0})
    EXPECT_NEAR(lut.Eval(x), Sigmoid(x), 0.01) << "x=" << x;
}

TEST(ApproxLut, ClampsOutsideDomain) {
  const ApproxLut lut = ApproxLut::Generate(SigmoidSpec(256, true));
  EXPECT_NEAR(lut.Eval(-100.0), 0.0, 0.01);
  EXPECT_NEAR(lut.Eval(100.0), 1.0, 0.01);
}

TEST(ApproxLut, MonotonicForSigmoid) {
  const ApproxLut lut = ApproxLut::Generate(SigmoidSpec(128, true));
  double prev = -1.0;
  for (int i = 0; i <= 200; ++i) {
    const double x = -8.0 + 16.0 * i / 200.0;
    const double y = lut.Eval(x);
    EXPECT_GE(y, prev - 1e-9) << "x=" << x;
    prev = y;
  }
}

TEST(ApproxLut, ErrorShrinksWithMoreEntries) {
  double prev_err = 1e9;
  for (std::int64_t entries : {16, 64, 256, 1024}) {
    const double err =
        ApproxLut::Generate(SigmoidSpec(entries, true)).MaxAbsError(2001);
    EXPECT_LE(err, prev_err + 1e-9) << entries << " entries";
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.002);  // 1024 interpolated entries: very accurate
}

TEST(ApproxLut, InterpolationBeatsNearest) {
  const double interp =
      ApproxLut::Generate(SigmoidSpec(64, true)).MeanAbsError(2001);
  const double nearest =
      ApproxLut::Generate(SigmoidSpec(64, false)).MeanAbsError(2001);
  EXPECT_LT(interp, nearest);
}

TEST(ApproxLut, RawEvalMatchesFloatEval) {
  const ApproxLut lut = ApproxLut::Generate(SigmoidSpec(256, true));
  const FixedFormat& fmt = lut.spec().format;
  for (double x : {-3.0, -1.0, 0.25, 2.0}) {
    const std::int64_t raw = fmt.Quantize(x);
    EXPECT_EQ(lut.EvalRaw(raw), fmt.Quantize(lut.Eval(x)))
        << "x=" << x;
  }
}

/// The scalar evaluation as first written: Dequantize and ldexp calls
/// per key, the reference the span form must reproduce bit for bit.
std::int64_t ReferenceEvalRaw(const ApproxLut& lut, std::int64_t raw_key) {
  const ApproxLutSpec& spec = lut.spec();
  const double x = spec.format.Dequantize(raw_key);
  const double span = spec.in_max - spec.in_min;
  double pos = (x - spec.in_min) / span * static_cast<double>(spec.entries);
  if (pos < 0.0) pos = 0.0;
  const double max_pos = static_cast<double>(spec.entries) - 1e-9;
  if (pos > max_pos) pos = max_pos;
  const std::int64_t index = static_cast<std::int64_t>(pos);
  const std::int64_t lo = lut.table()[static_cast<std::size_t>(index)];
  if (!spec.interpolate) return lo;
  const std::int64_t hi =
      index + 1 < spec.entries
          ? lut.table()[static_cast<std::size_t>(index + 1)]
          : lo;
  const double frac = pos - static_cast<double>(index);
  const int frac_bits = spec.format.frac_bits();
  const std::int64_t frac_raw =
      static_cast<std::int64_t>(frac * std::ldexp(1.0, frac_bits));
  return spec.format.Saturate(lo + (((hi - lo) * frac_raw) >> frac_bits));
}

// Every key of a 16-bit format, through one span call (in place, the
// way the simulator's activation layers use it) and through the scalar
// form, for every function with interpolation on and off, on the
// domains the generator gives each function.
TEST(ApproxLut, SpanEvalMatchesScalarForEveryKey) {
  const FixedFormat fmt(16, 8);
  std::vector<std::int32_t> keys;
  for (std::int64_t k = fmt.raw_min(); k <= fmt.raw_max(); ++k)
    keys.push_back(static_cast<std::int32_t>(k));
  for (const LutFunction fn :
       {LutFunction::kSigmoid, LutFunction::kTanh, LutFunction::kExp,
        LutFunction::kRecip, LutFunction::kLrnPow}) {
    for (const bool interpolate : {true, false}) {
      SCOPED_TRACE(LutFunctionName(fn) +
                   (interpolate ? " interpolated" : " nearest"));
      ApproxLutSpec spec;
      spec.function = fn;
      spec.interpolate = interpolate;
      spec.format = fmt;
      if (fn == LutFunction::kExp) {
        spec.in_min = -16.0;
        spec.in_max = 0.0;
      } else if (fn == LutFunction::kRecip || fn == LutFunction::kLrnPow) {
        spec.in_min = 1.0 / 128.0;
        spec.in_max = fmt.value_max();
      }
      const ApproxLut lut = ApproxLut::Generate(spec);
      std::vector<std::int32_t> out = keys;
      lut.EvalRaw(out, out.data());
      std::int64_t mismatches = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::int64_t want = ReferenceEvalRaw(lut, keys[i]);
        if ((out[i] != want || lut.EvalRaw(keys[i]) != want) &&
            ++mismatches <= 5)
          ADD_FAILURE() << "key " << keys[i] << ": want " << want
                        << " span " << out[i] << " scalar "
                        << lut.EvalRaw(keys[i]);
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

TEST(LutFunctions, ParseNames) {
  EXPECT_EQ(ParseLutFunction("sigmoid"), LutFunction::kSigmoid);
  EXPECT_EQ(ParseLutFunction("TANH"), LutFunction::kTanh);
  EXPECT_EQ(ParseLutFunction("exp"), LutFunction::kExp);
  EXPECT_EQ(ParseLutFunction("recip"), LutFunction::kRecip);
  EXPECT_EQ(ParseLutFunction("lrn_pow"), LutFunction::kLrnPow);
  EXPECT_THROW(ParseLutFunction("relu"), Error);
}

TEST(LutFunctions, NameRoundTrip) {
  for (LutFunction fn :
       {LutFunction::kSigmoid, LutFunction::kTanh, LutFunction::kExp,
        LutFunction::kRecip, LutFunction::kLrnPow})
    EXPECT_EQ(ParseLutFunction(LutFunctionName(fn)), fn);
}

TEST(LutFunctions, ImplValues) {
  EXPECT_NEAR(LutFunctionImpl(LutFunction::kExp)(0.0), 1.0, 1e-12);
  EXPECT_NEAR(LutFunctionImpl(LutFunction::kRecip)(4.0), 0.25, 1e-12);
  EXPECT_NEAR(LutFunctionImpl(LutFunction::kLrnPow, 0.75)(1.0), 1.0,
              1e-12);
  EXPECT_NEAR(LutFunctionImpl(LutFunction::kLrnPow, 0.5)(4.0), 0.5,
              1e-12);
}

// Parameterised accuracy sweep over every supported function.
class LutFunctionSweep : public ::testing::TestWithParam<LutFunction> {};

TEST_P(LutFunctionSweep, BoundedErrorAt256Entries) {
  ApproxLutSpec spec;
  spec.function = GetParam();
  spec.entries = 256;
  spec.interpolate = true;
  spec.format = FixedFormat(16, 10);
  switch (GetParam()) {
    case LutFunction::kExp:
      spec.in_min = -16.0;
      spec.in_max = 0.0;
      break;
    case LutFunction::kRecip:
    case LutFunction::kLrnPow:
      spec.in_min = 0.25;
      spec.in_max = 16.0;
      break;
    default:
      spec.in_min = -8.0;
      spec.in_max = 8.0;
  }
  const ApproxLut lut = ApproxLut::Generate(spec);
  // Error vs the fixed-point-rounded reference stays within a few LSBs
  // plus the sampling error of the steepest function (recip near 0.25).
  EXPECT_LT(lut.MeanAbsError(2001), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Functions, LutFunctionSweep,
    ::testing::Values(LutFunction::kSigmoid, LutFunction::kTanh,
                      LutFunction::kExp, LutFunction::kRecip,
                      LutFunction::kLrnPow),
    [](const auto& info) { return LutFunctionName(info.param); });

}  // namespace
}  // namespace db
