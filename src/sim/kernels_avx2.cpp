// AVX2 kernel backend.  This translation unit is compiled with -mavx2
// -mfma (see src/sim/CMakeLists.txt) and is only entered after
// Avx2Available() confirmed the CPU supports both.  The avx512 backend
// reuses this table for every kernel but the conv tile.
//
// Bit-identity with the scalar backend is structural: every op is either
// elementwise (writeback, relu, max) or an exact accumulation — int64
// for the batched and int16-weight dots, integer-valued double for the
// conv tile — whose summation order cannot matter because the simulator
// proves the sums fit (63 bits, or 53 for doubles) before routing work
// here.
#include "sim/kernels.h"

#if defined(DB_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>

namespace db::sim::detail {
namespace {

/// Eight weights widened to int32 lanes: a plain load for int32, a
/// sign-extending one for the int16 words of a 2-byte image.
__m256i Load8(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
__m256i Load8(const std::int16_t* p) {
  return _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// The dot of one weight row against B activation vectors.  Each
/// iteration widens eight weights once and multiplies them into every
/// vector; per vector, two accumulators (even and odd elements) hold
/// exact int64 sums, so accumulation order is immaterial.  The vectors
/// are unrolled by hand so every accumulator stays in a register.
template <std::size_t B, typename W>
void Avx2DotBatch(std::int64_t* out, const W* w, const std::int32_t* const* x,
                  std::size_t n) {
  static_assert(B >= 1 && B <= 4);
  const std::int32_t* x0 = x[0];
  const std::int32_t* x1 = B > 1 ? x[1] : x0;
  const std::int32_t* x2 = B > 2 ? x[2] : x0;
  const std::int32_t* x3 = B > 3 ? x[3] : x0;
  __m256i e0 = _mm256_setzero_si256(), o0 = _mm256_setzero_si256();
  __m256i e1 = _mm256_setzero_si256(), o1 = _mm256_setzero_si256();
  __m256i e2 = _mm256_setzero_si256(), o2 = _mm256_setzero_si256();
  __m256i e3 = _mm256_setzero_si256(), o3 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vw = Load8(w + i);
    // Even 32-bit elements live in the low half of each 64-bit lane;
    // shifting right by 32 exposes the odd elements there.
    const __m256i vw_odd = _mm256_srli_epi64(vw, 32);
    const auto mac = [&](const std::int32_t* xb, __m256i& even,
                         __m256i& odd) {
      const __m256i vx = Load8(xb + i);
      even = _mm256_add_epi64(even, _mm256_mul_epi32(vw, vx));
      odd = _mm256_add_epi64(
          odd, _mm256_mul_epi32(vw_odd, _mm256_srli_epi64(vx, 32)));
    };
    mac(x0, e0, o0);
    if constexpr (B > 1) mac(x1, e1, o1);
    if constexpr (B > 2) mac(x2, e2, o2);
    if constexpr (B > 3) mac(x3, e3, o3);
  }
  const __m256i sums[4] = {_mm256_add_epi64(e0, o0), _mm256_add_epi64(e1, o1),
                           _mm256_add_epi64(e2, o2), _mm256_add_epi64(e3, o3)};
  for (std::size_t b = 0; b < B; ++b) {
    std::int64_t tail = 0;
    for (std::size_t j = i; j < n; ++j)
      tail += static_cast<std::int64_t>(w[j]) * x[b][j];
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sums[b]);
    out[b] = lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail;
  }
}

template <typename W>
void Avx2Dot(std::int64_t* out, const W* w, const std::int32_t* const* x,
             std::size_t batch, std::size_t n) {
  static_assert(kDotBatch == 4);
  switch (batch) {
    case 1: return Avx2DotBatch<1>(out, w, x, n);
    case 2: return Avx2DotBatch<2>(out, w, x, n);
    case 3: return Avx2DotBatch<3>(out, w, x, n);
    default: return Avx2DotBatch<4>(out, w, x, n);
  }
}

/// Four output channels of the tile, c0..c0+3, over `taps` taps in
/// eight ymm accumulators: a<j><half> holds channel c0 + j, pixels
/// [4*half, 4*half+4), starting from zero when `first`, else from the
/// sums acc holds.  Each tap loads the 8 input pixels once and
/// broadcasts each channel's weight into one fused multiply-add per
/// half; every sum is an integer below 2^53, so each FMA is exact.
void Avx2ConvTileHalf(double* acc, const double* w, const double* in,
                      const std::int64_t* off, std::size_t taps,
                      std::size_t c0, bool first) {
  double* out = acc + c0 * kConvTilePixels;
  const auto init = [&](std::size_t i) {
    return first ? _mm256_setzero_pd() : _mm256_loadu_pd(out + i);
  };
  __m256d a00 = init(0), a01 = init(4);
  __m256d a10 = init(8), a11 = init(12);
  __m256d a20 = init(16), a21 = init(20);
  __m256d a30 = init(24), a31 = init(28);
  for (std::size_t t = 0; t < taps; ++t) {
    const double* x = in + off[t];
    const __m256d lo = _mm256_loadu_pd(x);
    const __m256d hi = _mm256_loadu_pd(x + 4);
    const double* wt = w + t * kConvTileChannels + c0;
    const __m256d w0 = _mm256_broadcast_sd(wt + 0);
    a00 = _mm256_fmadd_pd(lo, w0, a00);
    a01 = _mm256_fmadd_pd(hi, w0, a01);
    const __m256d w1 = _mm256_broadcast_sd(wt + 1);
    a10 = _mm256_fmadd_pd(lo, w1, a10);
    a11 = _mm256_fmadd_pd(hi, w1, a11);
    const __m256d w2 = _mm256_broadcast_sd(wt + 2);
    a20 = _mm256_fmadd_pd(lo, w2, a20);
    a21 = _mm256_fmadd_pd(hi, w2, a21);
    const __m256d w3 = _mm256_broadcast_sd(wt + 3);
    a30 = _mm256_fmadd_pd(lo, w3, a30);
    a31 = _mm256_fmadd_pd(hi, w3, a31);
  }
  _mm256_storeu_pd(out + 0, a00);
  _mm256_storeu_pd(out + 4, a01);
  _mm256_storeu_pd(out + 8, a10);
  _mm256_storeu_pd(out + 12, a11);
  _mm256_storeu_pd(out + 16, a20);
  _mm256_storeu_pd(out + 20, a21);
  _mm256_storeu_pd(out + 24, a30);
  _mm256_storeu_pd(out + 28, a31);
}

/// The 8x8 tile as two 4-channel passes: sixteen ymm registers hold only
/// the accumulators of all eight channels, none left for the loads.  The
/// passes alternate over blocks of kTapBlock taps, so the second finds
/// the block's weights and input lines still in L1 (a 5x5 layer's
/// weight pack, 1200 taps of 8 channels, is 75 KB).
void Avx2ConvTile(double* acc, const double* w, const double* in,
                  const std::int64_t* off, std::size_t taps) {
  static_assert(kConvTileChannels == 8 && kConvTilePixels == 8);
  constexpr std::size_t kTapBlock = 128;
  std::size_t t0 = 0;
  do {
    const std::size_t n = std::min(kTapBlock, taps - t0);
    const double* wb = w + t0 * kConvTileChannels;
    Avx2ConvTileHalf(acc, wb, in, off + t0, n, 0, t0 == 0);
    Avx2ConvTileHalf(acc, wb, in, off + t0, n, 4, t0 == 0);
    t0 += kTapBlock;
  } while (t0 < taps);
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
    "avx2",       Avx2Dot<std::int32_t>, Avx2Dot<std::int16_t>,
    Avx2ConvTile, Avx2Writeback,         Avx2Relu,
    Avx2MaxValue,
};

}  // namespace

const KernelOps& Avx2KernelsImpl() { return kAvx2Ops; }

}  // namespace db::sim::detail

#endif  // DB_HAVE_AVX2_KERNELS
