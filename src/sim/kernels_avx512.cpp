// AVX-512 conv tile.  This translation unit is compiled with -mavx512f
// -mfma (see src/sim/CMakeLists.txt) and is only entered after
// Avx512Available() confirmed the CPU supports both; the avx512 backend
// takes every other kernel from the avx2 table (kernels.cpp).
//
// Bit-identity with the scalar backend holds as for the avx2 tile: the
// operands are integer-valued doubles whose every partial sum the
// simulator has proven to stay below 2^53, so each FMA is exact and the
// order of the sum cannot matter.
#include "sim/kernels.h"

#if defined(DB_HAVE_AVX512_KERNELS)

#include <immintrin.h>

namespace db::sim::detail {

void Avx512ConvTile(double* acc, const double* w, const double* in,
                    const std::int64_t* off, std::size_t taps) {
  static_assert(kConvTileChannels == 8 && kConvTilePixels == 8);
  // The 8x8 tile lives in eight zmm accumulators, a<j> holding output
  // channel j's 8 pixels.  Each tap loads the 8 input pixels once and
  // broadcasts each channel's weight into one fused multiply-add: eight
  // independent chains, enough to cover the FMA latency on two ports.
  __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
  __m512d a2 = _mm512_setzero_pd(), a3 = _mm512_setzero_pd();
  __m512d a4 = _mm512_setzero_pd(), a5 = _mm512_setzero_pd();
  __m512d a6 = _mm512_setzero_pd(), a7 = _mm512_setzero_pd();
  for (std::size_t t = 0; t < taps; ++t) {
    const __m512d x = _mm512_loadu_pd(in + off[t]);
    const double* wt = w + t * kConvTileChannels;
    a0 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[0]), a0);
    a1 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[1]), a1);
    a2 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[2]), a2);
    a3 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[3]), a3);
    a4 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[4]), a4);
    a5 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[5]), a5);
    a6 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[6]), a6);
    a7 = _mm512_fmadd_pd(x, _mm512_set1_pd(wt[7]), a7);
  }
  _mm512_storeu_pd(acc + 0 * kConvTilePixels, a0);
  _mm512_storeu_pd(acc + 1 * kConvTilePixels, a1);
  _mm512_storeu_pd(acc + 2 * kConvTilePixels, a2);
  _mm512_storeu_pd(acc + 3 * kConvTilePixels, a3);
  _mm512_storeu_pd(acc + 4 * kConvTilePixels, a4);
  _mm512_storeu_pd(acc + 5 * kConvTilePixels, a5);
  _mm512_storeu_pd(acc + 6 * kConvTilePixels, a6);
  _mm512_storeu_pd(acc + 7 * kConvTilePixels, a7);
}

}  // namespace db::sim::detail

#endif  // DB_HAVE_AVX512_KERNELS
