// Runtime-parameterised Q-format fixed-point arithmetic.
//
// The DeepBurning datapath operates on fixed-point values whose total and
// fractional bit widths are chosen by NN-Gen per design (the paper leaves
// input bit-width as a reconfigurable component parameter).  Because the
// width is a *generator* decision, the format is a runtime object rather
// than a template parameter; raw values travel as int64_t.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace db {

/// A signed Q(total_bits - frac_bits - 1).frac_bits fixed-point format.
/// total_bits includes the sign bit.  Valid range: 2..32 total bits,
/// 0..total_bits-1 fractional bits.
class FixedFormat {
 public:
  FixedFormat(int total_bits, int frac_bits);

  int total_bits() const { return total_bits_; }
  int frac_bits() const { return frac_bits_; }
  int int_bits() const { return total_bits_ - frac_bits_ - 1; }

  /// Largest / smallest representable raw value.
  std::int64_t raw_max() const { return raw_max_; }
  std::int64_t raw_min() const { return raw_min_; }

  /// Real-valued range and resolution.
  double value_max() const;
  double value_min() const;
  double resolution() const;  // value of one LSB

  /// Convert a real number to the nearest representable raw value,
  /// saturating at the format bounds (the hardware saturates, not wraps).
  /// Round-half-away-from-zero; NaN maps to 0.  Branch-free and inline:
  /// image provisioning runs it once per weight.  Scaling by 2^f is
  /// exact (as ldexp), and truncating s + copysign(0.5, s) equals
  /// floor(s + 0.5) / ceil(s - 0.5) on each side of zero.
  std::int64_t Quantize(double value) const {
    const double s =
        value * static_cast<double>(std::int64_t{1} << frac_bits_);
    const double r =
        std::min(std::max(s + std::copysign(0.5, s),
                          static_cast<double>(raw_min_)),
                 static_cast<double>(raw_max_));
    return static_cast<std::int64_t>(std::isnan(s) ? 0.0 : r);
  }

  /// Convert a raw value back to a real number.
  double Dequantize(std::int64_t raw) const;

  /// Round-trip a real number through the format (quantisation error model).
  double RoundTrip(double value) const { return Dequantize(Quantize(value)); }

  /// Saturating add of two raw values in this format.
  std::int64_t Add(std::int64_t a, std::int64_t b) const;

  /// Saturating multiply: product of two raw values, renormalised back to
  /// this format (arithmetic right shift by frac_bits with rounding).
  std::int64_t Mul(std::int64_t a, std::int64_t b) const;

  /// Clamp an arbitrary raw value into the representable range.
  std::int64_t Saturate(std::int64_t raw) const;

  /// "Q3.12"-style human-readable name.
  std::string ToString() const;

  bool operator==(const FixedFormat& other) const = default;

 private:
  int total_bits_;
  int frac_bits_;
  std::int64_t raw_max_;
  std::int64_t raw_min_;
};

/// Quantise a whole float vector into raw values.
std::vector<std::int64_t> QuantizeVector(const FixedFormat& fmt,
                                         const std::vector<float>& values);

/// Dequantise a whole raw vector into floats.
std::vector<float> DequantizeVector(const FixedFormat& fmt,
                                    const std::vector<std::int64_t>& raw);

/// Root-mean-square quantisation error of representing `values` in `fmt`.
double QuantizationRmse(const FixedFormat& fmt,
                        const std::vector<float>& values);

}  // namespace db
