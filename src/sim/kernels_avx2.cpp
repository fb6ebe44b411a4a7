// AVX2 kernel backend.  This translation unit is compiled with -mavx2
// (see src/sim/CMakeLists.txt) and is only entered after
// Avx2Available() confirmed the CPU supports it.
//
// Bit-identity with the scalar backend is structural: every op is either
// elementwise (writeback, relu, max) or an exact int64 accumulation
// (mac_row, dot, int16-weight dot) whose summation order cannot matter
// because the simulator guarantees no-overflow before routing work here.
#include "sim/kernels.h"

#if defined(DB_HAVE_AVX2_KERNELS)

#include <immintrin.h>

namespace db::sim::detail {
namespace {

void Avx2MacRow(std::int64_t* acc, const std::int32_t* in, std::int32_t w,
                std::size_t n) {
  // Low 32 bits of every 64-bit lane hold w; _mm256_mul_epi32
  // sign-extends exactly those.
  const __m256i vw =
      _mm256_set1_epi64x(static_cast<std::uint32_t>(w));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i in64a = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256i in64b = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i + 4)));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(acc + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(acc + i + 4));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + i),
        _mm256_add_epi64(a, _mm256_mul_epi32(in64a, vw)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + i + 4),
        _mm256_add_epi64(b, _mm256_mul_epi32(in64b, vw)));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256i in64 = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(acc + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(acc + i),
        _mm256_add_epi64(a, _mm256_mul_epi32(in64, vw)));
  }
  const std::int64_t w64 = w;
  for (; i < n; ++i) acc[i] += w64 * in[i];
}

/// Eight weights widened to int32 lanes: a plain load for int32, a
/// sign-extending one for the int16 words of a 2-byte image.
__m256i Load8(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
__m256i Load8(const std::int16_t* p) {
  return _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

template <typename W>
std::int64_t Avx2DotRows(const W* a, std::ptrdiff_t a_stride,
                         const std::int32_t* b, std::ptrdiff_t b_stride,
                         std::size_t rows, std::size_t n) {
  // Two independent accumulators break the add dependency chain, and
  // persist across rows; the int64 sums are exact, so accumulation order
  // is immaterial.
  __m256i sum_even = _mm256_setzero_si256();
  __m256i sum_odd = _mm256_setzero_si256();
  std::int64_t tail = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const W* pa = a + static_cast<std::ptrdiff_t>(r) * a_stride;
    const std::int32_t* pb = b + static_cast<std::ptrdiff_t>(r) * b_stride;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i va = Load8(pa + i);
      const __m256i vb = Load8(pb + i);
      // Even 32-bit elements live in the low half of each 64-bit lane;
      // shifting right by 32 exposes the odd elements there.
      sum_even = _mm256_add_epi64(sum_even, _mm256_mul_epi32(va, vb));
      sum_odd = _mm256_add_epi64(
          sum_odd, _mm256_mul_epi32(_mm256_srli_epi64(va, 32),
                                    _mm256_srli_epi64(vb, 32)));
    }
    for (; i < n; ++i) tail += static_cast<std::int64_t>(pa[i]) * pb[i];
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(sum_even, sum_odd));
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail;
}

template <typename W>
std::int64_t Avx2Dot(const W* a, const std::int32_t* b, std::size_t n) {
  return Avx2DotRows(a, 0, b, 0, 1, n);
}

void Avx2Writeback(std::int32_t* out, const std::int64_t* acc,
                   std::size_t n, int frac_bits, std::int32_t raw_min,
                   std::int32_t raw_max) {
  const __m256i vmax = _mm256_set1_epi64x(raw_max);
  const __m256i vmin = _mm256_set1_epi64x(raw_min);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i half = _mm256_set1_epi64x(
      frac_bits > 0 ? std::int64_t{1} << (frac_bits - 1) : 0);
  // Gather the low 32 bits of each 64-bit lane into the low 128 bits.
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    if (frac_bits > 0) {
      // v = (v + half - sign_bit) >> frac_bits, arithmetic — AVX2 has no
      // 64-bit arithmetic shift, so emulate via logical shift + sign
      // fill.
      v = _mm256_sub_epi64(_mm256_add_epi64(v, half),
                           _mm256_srli_epi64(v, 63));
      const __m256i negative = _mm256_cmpgt_epi64(zero, v);
      v = _mm256_or_si256(
          _mm256_srli_epi64(v, frac_bits),
          _mm256_slli_epi64(negative, 64 - frac_bits));
    }
    v = _mm256_blendv_epi8(v, vmax, _mm256_cmpgt_epi64(v, vmax));
    v = _mm256_blendv_epi8(v, vmin, _mm256_cmpgt_epi64(vmin, v));
    const __m256i packed = _mm256_permutevar8x32_epi32(v, pack_idx);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) {
    std::int64_t v = RoundShiftHalfAway(acc[i], frac_bits);
    if (v > raw_max) v = raw_max;
    if (v < raw_min) v = raw_min;
    out[i] = static_cast<std::int32_t>(v);
  }
}

void Avx2Relu(std::int32_t* out, const std::int32_t* in, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_max_epi32(v, zero));
  }
  for (; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0;
}

std::int32_t Avx2MaxValue(const std::int32_t* in, std::size_t n,
                          std::int32_t init) {
  std::int32_t best = init;
  std::size_t i = 0;
  if (n >= 8) {
    __m256i vbest = _mm256_set1_epi32(init);
    for (; i + 8 <= n; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
      vbest = _mm256_max_epi32(vbest, v);
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vbest);
    for (std::int32_t lane : lanes)
      if (lane > best) best = lane;
  }
  for (; i < n; ++i)
    if (in[i] > best) best = in[i];
  return best;
}

constexpr KernelOps kAvx2Ops = {
    "avx2",        Avx2MacRow, Avx2Dot<std::int32_t>,
    Avx2DotRows<std::int32_t>, Avx2Dot<std::int16_t>,
    Avx2DotRows<std::int16_t>, Avx2Writeback, Avx2Relu,
    Avx2MaxValue,
};

}  // namespace

const KernelOps& Avx2KernelsImpl() { return kAvx2Ops; }

}  // namespace db::sim::detail

#endif  // DB_HAVE_AVX2_KERNELS
