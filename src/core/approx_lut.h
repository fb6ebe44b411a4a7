// Approx LUT content generation and evaluation (paper §3.3).
//
// The hardware table stores sampled points of a complex function; keys
// that hit read the stored value, keys that miss interpolate between the
// adjacent sampled entries ("super-linear interpolation").  The compiler
// side (this file) parses the requested function, chooses the sample
// points and computes the stored values; the hardware side is emitted by
// rtl/block_emitters and the functional simulator evaluates through the
// same table object so accelerator outputs are bit-faithful to what the
// RTL would produce.
#pragma once

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_point.h"

namespace db {

/// Functions the current library version maps onto Approx LUTs.
enum class LutFunction {
  kSigmoid,
  kTanh,
  kExp,        // softmax numerator
  kRecip,      // 1/x for softmax / LRN division
  kLrnPow,     // x^(-beta) for the LRN scale stage
};

std::string LutFunctionName(LutFunction fn);

/// Parse "sigmoid", "tanh", ... (case-insensitive).  Throws db::Error.
LutFunction ParseLutFunction(const std::string& name);

/// The reference scalar implementation of a LUT function; `beta` only
/// affects kLrnPow.
std::function<double(double)> LutFunctionImpl(LutFunction fn,
                                              double beta = 0.75);

/// Static configuration of one generated Approx LUT.
struct ApproxLutSpec {
  LutFunction function = LutFunction::kSigmoid;
  std::int64_t entries = 256;   // power of two
  bool interpolate = true;      // super-linear interpolation on miss
  FixedFormat format{16, 8};    // datapath fixed-point format
  // Input domain covered by the table; keys outside clamp to the ends
  // (saturating behaviour matching the datapath).
  double in_min = -8.0;
  double in_max = 8.0;
  double beta = 0.75;           // kLrnPow exponent
};

/// A generated lookup table: the compiler artifact burnt into BRAM.
class ApproxLut {
 public:
  /// Sample the function and build the table.  Throws db::Error for
  /// invalid specs (non-power-of-two entries, empty domain).
  static ApproxLut Generate(const ApproxLutSpec& spec);

  const ApproxLutSpec& spec() const { return spec_; }

  /// The stored raw values (fixed-point), in key order; what the RTL
  /// initialisation file would contain.
  const std::vector<std::int64_t>& table() const { return values_; }

  /// Hardware-faithful evaluation: quantise x, index by the top key bits,
  /// interpolate on the fractional bits if enabled, return the
  /// fixed-point result dequantised.
  double Eval(double x) const;

  /// Raw-in/raw-out evaluation used by the functional simulator:
  /// out[i] is the table's answer for raw key keys[i] of the format.
  /// `out` may alias `keys` element for element.  The scalar form below
  /// is the n = 1 case.
  void EvalRaw(std::span<const std::int32_t> keys, std::int32_t* out) const;
  std::int32_t EvalRaw(std::int32_t raw_key) const {
    std::int32_t out = 0;
    EvalRaw({&raw_key, 1}, &out);
    return out;
  }

  /// Maximum absolute error against the reference implementation over
  /// `samples` evenly-spaced points of the domain.
  double MaxAbsError(int samples = 10001) const;

  /// Mean absolute error over the domain.
  double MeanAbsError(int samples = 10001) const;

 private:
  ApproxLut(ApproxLutSpec spec, std::vector<std::int64_t> values)
      : spec_(spec),
        values_(std::move(values)),
        key_scale_(std::ldexp(1.0, -spec_.format.frac_bits())),
        frac_scale_(std::ldexp(1.0, spec_.format.frac_bits())) {}

  ApproxLutSpec spec_;
  std::vector<std::int64_t> values_;
  /// 2^-f and 2^f of the format: multiplying by them is Dequantize and
  /// the fraction quantiser's ldexp, exactly (raw keys and fractions
  /// stay far from the double's subnormal and overflow ranges).
  double key_scale_;
  double frac_scale_;
};

}  // namespace db
