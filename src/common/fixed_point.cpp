#include "common/fixed_point.h"

#include <cmath>

#include "common/error.h"

namespace db {

FixedFormat::FixedFormat(int total_bits, int frac_bits)
    : total_bits_(total_bits), frac_bits_(frac_bits) {
  if (total_bits < 2 || total_bits > 32)
    DB_THROW("FixedFormat total_bits must be in [2,32], got " << total_bits);
  if (frac_bits < 0 || frac_bits >= total_bits)
    DB_THROW("FixedFormat frac_bits must be in [0,total_bits), got "
             << frac_bits);
  raw_max_ = (std::int64_t{1} << (total_bits - 1)) - 1;
  raw_min_ = -(std::int64_t{1} << (total_bits - 1));
}

double FixedFormat::value_max() const { return Dequantize(raw_max_); }
double FixedFormat::value_min() const { return Dequantize(raw_min_); }

double FixedFormat::resolution() const {
  return std::ldexp(1.0, -frac_bits_);
}

double FixedFormat::Dequantize(std::int64_t raw) const {
  return std::ldexp(static_cast<double>(raw), -frac_bits_);
}

std::int64_t FixedFormat::Saturate(std::int64_t raw) const {
  if (raw > raw_max_) return raw_max_;
  if (raw < raw_min_) return raw_min_;
  return raw;
}

std::int64_t FixedFormat::Add(std::int64_t a, std::int64_t b) const {
  return Saturate(a + b);
}

std::int64_t FixedFormat::Mul(std::int64_t a, std::int64_t b) const {
  // Product carries 2*frac_bits fractional bits; renormalise with
  // round-half-away-from-zero on the discarded bits, matching Quantize
  // (a bare `+ half; >> frac` would round negative ties toward +inf —
  // subtracting the sign bit repairs exactly the tie case).
  __int128 prod = static_cast<__int128>(a) * static_cast<__int128>(b);
  if (frac_bits_ > 0) {
    prod += (static_cast<__int128>(1) << (frac_bits_ - 1)) -
            (prod < 0 ? 1 : 0);
    prod >>= frac_bits_;
  }
  if (prod > raw_max_) return raw_max_;
  if (prod < raw_min_) return raw_min_;
  return static_cast<std::int64_t>(prod);
}

std::string FixedFormat::ToString() const {
  // Appended piecewise: GCC 12 at -O3 flags the chained operator+
  // temporaries with a false-positive -Wrestrict.
  std::string name = "Q";
  name += std::to_string(int_bits());
  name += '.';
  name += std::to_string(frac_bits_);
  return name;
}

std::vector<std::int64_t> QuantizeVector(const FixedFormat& fmt,
                                         const std::vector<float>& values) {
  std::vector<std::int64_t> raw;
  raw.reserve(values.size());
  for (float v : values) raw.push_back(fmt.Quantize(v));
  return raw;
}

std::vector<float> DequantizeVector(const FixedFormat& fmt,
                                    const std::vector<std::int64_t>& raw) {
  std::vector<float> out;
  out.reserve(raw.size());
  for (std::int64_t r : raw)
    out.push_back(static_cast<float>(fmt.Dequantize(r)));
  return out;
}

double QuantizationRmse(const FixedFormat& fmt,
                        const std::vector<float>& values) {
  if (values.empty()) return 0.0;
  double sum_sq = 0.0;
  for (float v : values) {
    const double err = fmt.RoundTrip(v) - v;
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(values.size()));
}

}  // namespace db
