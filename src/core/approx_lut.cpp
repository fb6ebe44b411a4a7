#include "core/approx_lut.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace db {

std::string LutFunctionName(LutFunction fn) {
  switch (fn) {
    case LutFunction::kSigmoid: return "sigmoid";
    case LutFunction::kTanh: return "tanh";
    case LutFunction::kExp: return "exp";
    case LutFunction::kRecip: return "recip";
    case LutFunction::kLrnPow: return "lrn_pow";
  }
  return "?";
}

LutFunction ParseLutFunction(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "sigmoid") return LutFunction::kSigmoid;
  if (n == "tanh") return LutFunction::kTanh;
  if (n == "exp") return LutFunction::kExp;
  if (n == "recip" || n == "reciprocal") return LutFunction::kRecip;
  if (n == "lrn_pow" || n == "lrnpow") return LutFunction::kLrnPow;
  DB_THROW("unknown LUT function '" << name << "'");
}

std::function<double(double)> LutFunctionImpl(LutFunction fn, double beta) {
  switch (fn) {
    case LutFunction::kSigmoid:
      return [](double x) { return Sigmoid(x); };
    case LutFunction::kTanh:
      return [](double x) { return TanhFn(x); };
    case LutFunction::kExp:
      return [](double x) { return std::exp(x); };
    case LutFunction::kRecip:
      return [](double x) {
        return std::fabs(x) < 1e-6 ? (x < 0 ? -1e6 : 1e6) : 1.0 / x;
      };
    case LutFunction::kLrnPow:
      return [beta](double x) {
        return x <= 0.0 ? 1.0 : std::pow(x, -beta);
      };
  }
  DB_THROW("unhandled LUT function");
}

ApproxLut ApproxLut::Generate(const ApproxLutSpec& spec) {
  if (!IsPow2(spec.entries) || spec.entries < 2)
    DB_THROW("approx LUT entries must be a power of two >= 2, got "
             << spec.entries);
  if (!(spec.in_min < spec.in_max))
    DB_THROW("approx LUT domain is empty: [" << spec.in_min << ", "
             << spec.in_max << "]");
  const auto fn = LutFunctionImpl(spec.function, spec.beta);
  std::vector<std::int64_t> values;
  values.reserve(static_cast<std::size_t>(spec.entries));
  // Sample at the left edge of each key bucket; the last bucket's sample
  // pairs with the domain end for interpolation.
  const double step = (spec.in_max - spec.in_min) /
                      static_cast<double>(spec.entries);
  for (std::int64_t i = 0; i < spec.entries; ++i) {
    const double x = spec.in_min + static_cast<double>(i) * step;
    values.push_back(spec.format.Quantize(fn(x)));
  }
  return ApproxLut(spec, std::move(values));
}

void ApproxLut::EvalRaw(std::span<const std::int32_t> keys,
                        std::int32_t* out) const {
  const double in_min = spec_.in_min;
  const double span = spec_.in_max - spec_.in_min;
  const double entries = static_cast<double>(spec_.entries);
  const double max_pos = entries - 1e-9;
  const int frac_bits = spec_.format.frac_bits();
  const std::int64_t raw_min = spec_.format.raw_min();
  const std::int64_t raw_max = spec_.format.raw_max();
  const std::int64_t* values = values_.data();
  // Runs of equal keys (saturated activations, an LRN window sum that
  // rounds to zero) reuse the previous answer.
  std::int32_t last_key = 0;
  std::int32_t last = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::int32_t key = keys[i];
    if (i > 0 && key == last_key) {
      out[i] = last;
      continue;
    }
    last_key = key;
    // Map the raw fixed-point key onto the table domain.
    const double x = static_cast<double>(key) * key_scale_;
    double pos = (x - in_min) / span * entries;
    if (pos < 0.0) pos = 0.0;
    if (pos > max_pos) pos = max_pos;

    const std::int64_t index = static_cast<std::int64_t>(pos);
    const std::int64_t lo = values[index];
    if (!spec_.interpolate) {
      out[i] = last = static_cast<std::int32_t>(lo);
      continue;
    }

    // Super-linear interpolation between the adjacent sampled keys; the
    // hardware multiplies the value delta by the fractional key bits.
    const std::int64_t hi = index + 1 < spec_.entries ? values[index + 1] : lo;
    const double frac = pos - static_cast<double>(index);
    // Quantise the fraction to the hardware's fractional-bit resolution
    // so simulation matches the RTL datapath.
    const std::int64_t frac_raw =
        static_cast<std::int64_t>(frac * frac_scale_);
    const std::int64_t delta = hi - lo;
    out[i] = last = static_cast<std::int32_t>(std::clamp(
        lo + ((delta * frac_raw) >> frac_bits), raw_min, raw_max));
  }
}

double ApproxLut::Eval(double x) const {
  return spec_.format.Dequantize(
      EvalRaw(static_cast<std::int32_t>(spec_.format.Quantize(x))));
}

double ApproxLut::MaxAbsError(int samples) const {
  const auto fn = LutFunctionImpl(spec_.function, spec_.beta);
  double max_err = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = spec_.in_min + (spec_.in_max - spec_.in_min) *
                                        static_cast<double>(i) /
                                        static_cast<double>(samples - 1);
    const double ref = spec_.format.RoundTrip(fn(x));
    max_err = std::max(max_err, std::fabs(Eval(x) - ref));
  }
  return max_err;
}

double ApproxLut::MeanAbsError(int samples) const {
  const auto fn = LutFunctionImpl(spec_.function, spec_.beta);
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = spec_.in_min + (spec_.in_max - spec_.in_min) *
                                        static_cast<double>(i) /
                                        static_cast<double>(samples - 1);
    const double ref = spec_.format.RoundTrip(fn(x));
    sum += std::fabs(Eval(x) - ref);
  }
  return sum / static_cast<double>(samples);
}

}  // namespace db
