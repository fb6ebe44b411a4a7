// Unit tests for the SoA kernel layer (sim/kernels.h): the rounding
// helpers, every kernel backend (bit-for-bit against each other and
// against brute-force references, across saturation and tie edges), the
// runtime backend dispatch, and the scratch arena's reuse contract.
#include "sim/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace db::sim {
namespace {

// ------------------------------------------------------------- rounding

TEST(RoundShiftHalfAway, TiesRoundAwayFromZeroBothSigns) {
  // frac_bits = 8: half = 128.
  EXPECT_EQ(RoundShiftHalfAway(128, 8), 1);
  EXPECT_EQ(RoundShiftHalfAway(-128, 8), -1);
  EXPECT_EQ(RoundShiftHalfAway(384, 8), 2);
  EXPECT_EQ(RoundShiftHalfAway(-384, 8), -2);
  // One below the tie rounds toward zero.
  EXPECT_EQ(RoundShiftHalfAway(127, 8), 0);
  EXPECT_EQ(RoundShiftHalfAway(-127, 8), 0);
  // One above the tie rounds away.
  EXPECT_EQ(RoundShiftHalfAway(129, 8), 1);
  EXPECT_EQ(RoundShiftHalfAway(-129, 8), -1);
  // frac_bits = 0 is the identity.
  EXPECT_EQ(RoundShiftHalfAway(-7, 0), -7);
}

TEST(RoundShiftHalfAway, WideVariantMatchesNarrowOnInt64Range) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.Next() >> 16) -
                   (std::int64_t{1} << 47);
    const int frac = 1 + static_cast<int>(rng.UniformInt(24));
    EXPECT_EQ(static_cast<std::int64_t>(
                  RoundShiftHalfAway128(static_cast<__int128>(v), frac)),
              RoundShiftHalfAway(v, frac))
        << "v=" << v << " frac=" << frac;
  }
}

// ------------------------------------------------- backends, bit for bit

/// The table of every backend this host can run, scalar first.
std::vector<const KernelOps*> Backends() {
  std::vector<const KernelOps*> ops;
  for (const KernelBackend backend : AvailableBackends())
    ops.push_back(&KernelsFor(backend));
  return ops;
}

std::vector<std::int32_t> RandomI32(Rng& rng, std::size_t n,
                                    std::int32_t lo, std::int32_t hi) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v)
    x = lo + static_cast<std::int32_t>(rng.UniformInt(
                 static_cast<std::uint64_t>(hi - lo) + 1));
  return v;
}

/// A batched dot kernel over one activation vector.
template <typename W>
std::int64_t DotOne(void (*dot)(std::int64_t*, const W*,
                                const std::int32_t* const*, std::size_t,
                                std::size_t),
                    const W* w, const std::int32_t* x, std::size_t n) {
  std::int64_t out = 0;
  dot(&out, w, &x, 1, n);
  return out;
}

TEST(Kernels, DotMatchesBruteForce) {
  Rng rng(8);
  for (const std::size_t n : {0u, 1u, 5u, 8u, 13u, 32u, 67u}) {
    const std::vector<std::int32_t> a =
        RandomI32(rng, n, -(1 << 15), 1 << 15);
    const std::vector<std::int32_t> b =
        RandomI32(rng, n, -(1 << 15), 1 << 15);
    std::int64_t want = 0;
    for (std::size_t i = 0; i < n; ++i)
      want += static_cast<std::int64_t>(a[i]) * b[i];
    for (const KernelOps* ops : Backends())
      EXPECT_EQ(DotOne(ops->dot, a.data(), b.data(), n), want)
          << ops->name << " n=" << n;
  }
}

TEST(Kernels, Int16WeightDotsMatchBruteForceAtVectorBoundaries) {
  Rng rng(9);
  // Lengths around every 8-lane block boundary, with the int16 extremes
  // against wide int32 activations (the sign extension of the weight
  // load is what differs from the int32 kernels).
  for (const std::size_t n :
       {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 25u, 64u, 67u}) {
    std::vector<std::int16_t> w(n);
    for (auto& x : w)
      x = static_cast<std::int16_t>(rng.UniformInt(1 << 16) - (1 << 15));
    if (n > 0) {
      w[0] = std::numeric_limits<std::int16_t>::min();
      w[n - 1] = std::numeric_limits<std::int16_t>::max();
    }
    const std::vector<std::int32_t> x =
        RandomI32(rng, n, -(1 << 30), (1 << 30) - 1);
    std::int64_t want = 0;
    for (std::size_t i = 0; i < n; ++i)
      want += static_cast<std::int64_t>(w[i]) * x[i];
    for (const KernelOps* ops : Backends())
      EXPECT_EQ(DotOne(ops->dot_w16, w.data(), x.data(), n), want)
          << ops->name << " n=" << n;
  }
}

/// Every batch size against every tail length, int32 and int16 weights,
/// with magnitudes at the narrow-guard limit.  The simulator routes a
/// layer here only when 2 * (tb - 1) + bit_width(T) <= 62 for a
/// tb-bit format and T summed terms; for T <= 40 that admits tb = 29,
/// so int32 weights and activations take the 29-bit extremes +-2^28.
/// int16 weights take their whole range against the int32 extremes.
/// Vectors are exact-size heap buffers, so a load past n is an ASan
/// error.
TEST(Kernels, BatchedDotMatchesBruteForce) {
  Rng rng(17);
  const auto check = [&](const auto& w, const auto dot_of,
                         std::int32_t x_min, std::int32_t x_max,
                         std::size_t n) {
    std::vector<std::vector<std::int32_t>> xs;
    for (std::size_t b = 0; b < kDotBatch; ++b) {
      xs.push_back(RandomI32(rng, n, x_min / 2, x_max / 2));
      for (std::size_t i = b; i < n; i += 3)
        xs.back()[i] = i % 2 == 0 ? x_min : x_max;
    }
    const std::int32_t* x[kDotBatch];
    for (std::size_t b = 0; b < kDotBatch; ++b) x[b] = xs[b].data();
    for (std::size_t batch = 1; batch <= kDotBatch; ++batch) {
      std::int64_t want[kDotBatch];
      for (std::size_t b = 0; b < batch; ++b) {
        want[b] = 0;
        for (std::size_t i = 0; i < n; ++i)
          want[b] += static_cast<std::int64_t>(w[i]) * x[b][i];
      }
      for (const KernelOps* ops : Backends()) {
        std::int64_t got[kDotBatch] = {};
        dot_of(*ops)(got, w.data(), x, batch, n);
        for (std::size_t b = 0; b < batch; ++b)
          EXPECT_EQ(got[b], want[b]) << ops->name << " batch=" << batch
                                     << " b=" << b << " n=" << n;
      }
    }
  };
  constexpr std::int32_t kLim = 1 << 28;
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<std::int32_t> w32 = RandomI32(rng, n, -kLim, kLim - 1);
    for (std::size_t i = 0; i < n; i += 2)
      w32[i] = i % 4 == 0 ? -kLim : kLim - 1;
    check(w32, [](const KernelOps& ops) { return ops.dot; }, -kLim,
          kLim - 1, n);
    std::vector<std::int16_t> w16(n);
    for (auto& v : w16)
      v = static_cast<std::int16_t>(rng.UniformInt(1 << 16) - (1 << 15));
    for (std::size_t i = 0; i < n; i += 2)
      w16[i] = i % 4 == 0 ? std::numeric_limits<std::int16_t>::min()
                          : std::numeric_limits<std::int16_t>::max();
    check(w16, [](const KernelOps& ops) { return ops.dot_w16; },
          std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max(), n);
  }
}

/// `n` integers drawn uniformly from the `bits`-bit two's-complement
/// range, as the doubles the conv tile takes.
std::vector<double> RandomIntegers(Rng& rng, std::size_t n, int bits) {
  const std::int64_t half = std::int64_t{1} << (bits - 1);
  std::vector<double> v(n);
  for (auto& x : v)
    x = static_cast<double>(
        static_cast<std::int64_t>(rng.UniformInt(std::uint64_t{1} << bits)) -
        half);
  return v;
}

/// One conv tile call under every backend against the exact int64 sums.
void CheckConvTile(const std::vector<double>& w, const std::vector<double>& in,
                   const std::vector<std::int64_t>& off) {
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  const std::size_t taps = off.size();
  std::vector<std::int64_t> want(kC * kP, 0);
  for (std::size_t t = 0; t < taps; ++t)
    for (std::size_t j = 0; j < kC; ++j)
      for (std::size_t i = 0; i < kP; ++i)
        want[j * kP + i] +=
            static_cast<std::int64_t>(w[t * kC + j]) *
            static_cast<std::int64_t>(in[static_cast<std::size_t>(off[t]) + i]);
  for (const KernelOps* ops : Backends()) {
    std::vector<double> acc(kC * kP, 99);
    ops->conv_tile(acc.data(), w.data(), in.data(), off.data(), taps);
    std::vector<std::int64_t> got(kC * kP);
    for (std::size_t i = 0; i < acc.size(); ++i)
      got[i] = static_cast<std::int64_t>(acc[i]);
    EXPECT_EQ(got, want) << ops->name << " taps=" << taps;
  }
}

/// The double conv tile against its exact int64 oracle, inside the
/// bound the simulator routes by: 16-bit weights (the int16 words of a
/// 2-byte image) against activations as wide as SumBits allows for the
/// tap count, capped at 32 bits.  Tap offsets are random into an input
/// sized exactly to the furthest tile load, so an over-read is a
/// sanitizer error.
TEST(Kernels, ConvTileMatchesBruteForce) {
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  Rng rng(10);
  for (const std::size_t taps :
       {1u, 2u, 3u, 7u, 9u, 25u, 121u, 363u, 1200u, 2304u, 2400u}) {
    const auto n_taps = static_cast<std::int64_t>(taps);
    const int x_bits =
        std::min(32, kConvTileExactBits - SumBits(16, 1, n_taps) + 1);
    ASSERT_EQ(SumBits(16, x_bits, n_taps) <= kConvTileExactBits, true);
    std::vector<std::int64_t> off(taps);
    std::size_t extent = 0;
    const std::size_t span = 1 + rng.UniformInt(4 * taps);
    for (auto& o : off) {
      o = static_cast<std::int64_t>(rng.UniformInt(span));
      extent = std::max(extent, static_cast<std::size_t>(o) + kP);
    }
    std::vector<double> in = RandomIntegers(rng, extent, x_bits);
    std::vector<double> w = RandomIntegers(rng, taps * kC, 16);
    in.front() = -std::ldexp(1.0, x_bits - 1);
    w.front() = -32768;
    w.back() = 32767;
    CheckConvTile(w, in, off);
  }
}

/// Sums exactly at the bound, every one odd: 255 taps of 16-bit weights
/// against the widest activations SumBits admits (31 bits).  Tap 0 adds
/// an odd product; the other 254 add about +-2^45, the extremes of the
/// two operands, so the sums end within 2^46 of 2^53, where a double
/// still holds every integer.  One bit more of activation would carry
/// them past 2^53, where an odd sum cannot be represented.
TEST(Kernels, ConvTileIsExactAtItsBound) {
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  constexpr std::int64_t kTaps = 255;
  const int x_bits = kConvTileExactBits - SumBits(16, 1, kTaps) + 1;
  ASSERT_EQ(SumBits(16, x_bits, kTaps), kConvTileExactBits);
  // in[0, kP): odd pixels 1, 3, ..., read by tap 0; in[kP, 2kP): the
  // most negative activation, read by every other tap.
  std::vector<double> in(2 * kP);
  for (std::size_t i = 0; i < kP; ++i) {
    in[i] = static_cast<double>(2 * i + 1);
    in[kP + i] = -std::ldexp(1.0, x_bits - 1);
  }
  std::vector<std::int64_t> off(kTaps, static_cast<std::int64_t>(kP));
  off[0] = 0;
  // Even channels multiply by the most negative weight (positive sums),
  // odd channels by the most positive (negative sums); tap 0's weights
  // are small odd numbers.
  std::vector<double> w(kTaps * kC);
  for (std::size_t t = 0; t < static_cast<std::size_t>(kTaps); ++t)
    for (std::size_t j = 0; j < kC; ++j)
      w[t * kC + j] = t == 0 ? static_cast<double>(2 * j + 1)
                             : (j % 2 == 0 ? -32768.0 : 32767.0);
  CheckConvTile(w, in, off);
}

/// The 8x8 tile at tap counts on both sides of every power of two up to
/// 257 (the AVX2 tile's two 4-channel passes and their 128-tap blocks,
/// the AVX-512 tile's one 8-lane load per tap), for the weight words of
/// 1-, 2- and 4-byte images at their edges, against activations as wide
/// as SumBits admits (capped at 32 bits): wherever the cap does not
/// bind, the sums sit at the 53-bit bound.  Channels 0-3 take word-edge
/// weights on every tap (the most negative word on even channels, the
/// most positive on odd ones) and even pixels the most negative
/// activation, so their sums come within a factor of two of the bound;
/// the last tap's weights and activations are odd, so an FMA that
/// rounded would drop a set low bit.  Channels 4-7 and odd pixels draw
/// at random.  Each tap reads its own kP pixels of an input sized
/// exactly to the last load.
TEST(Kernels, ConvTileIsExactAtTapAndWordEdges) {
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  static_assert(kC == 8 && kP == 8);
  Rng rng(25);
  int at_bound = 0;
  for (const int w_bits : {8, 16, 32}) {
    for (const std::size_t taps :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
          63u, 64u, 65u, 127u, 128u, 129u, 255u, 256u, 257u}) {
      const auto n_taps = static_cast<std::int64_t>(taps);
      const int x_bits =
          std::min(32, kConvTileExactBits - SumBits(w_bits, 1, n_taps) + 1);
      ASSERT_LE(SumBits(w_bits, x_bits, n_taps), kConvTileExactBits);
      if (SumBits(w_bits, x_bits, n_taps) == kConvTileExactBits) ++at_bound;
      const double w_min = -std::ldexp(1.0, w_bits - 1);
      const double x_min = -std::ldexp(1.0, x_bits - 1);
      std::vector<double> w = RandomIntegers(rng, taps * kC, w_bits);
      std::vector<double> in = RandomIntegers(rng, taps * kP, x_bits);
      std::vector<std::int64_t> off(taps);
      for (std::size_t t = 0; t < taps; ++t) {
        off[t] = static_cast<std::int64_t>(t * kP);
        const bool last = t + 1 == taps;
        for (std::size_t j = 0; j < 4; ++j)
          w[t * kC + j] = j % 2 == 0 ? w_min + (last ? 1 : 0) : -w_min - 1;
        for (std::size_t i = 0; i < kP; i += 2)
          in[t * kP + i] = last ? -x_min - 1 : x_min;
      }
      SCOPED_TRACE("w_bits=" + std::to_string(w_bits));
      CheckConvTile(w, in, off);
    }
  }
  // Every 4-byte-word row and the 2-byte rows from 64 taps up.
  EXPECT_EQ(at_bound, 23 + 8);
}

TEST(Kernels, WritebackSaturatesAndRoundsTiesAwayFromZero) {
  // A 16-bit format with 8 fractional bits: raw range [-32768, 32767].
  constexpr int kFrac = 8;
  constexpr std::int32_t kMin = -32768, kMax = 32767;
  const std::vector<std::int64_t> acc = {
      128,   -128,  384,  -384,  127,    -127,        // tie edges
      (std::int64_t{kMax} << kFrac) + 500,            // above raw_max
      (std::int64_t{kMin} << kFrac) - 500,            // below raw_min
      std::numeric_limits<std::int64_t>::max() / 2,   // deep saturation
      std::numeric_limits<std::int64_t>::min() / 2,
      0};
  std::vector<std::int32_t> want(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::int64_t r = RoundShiftHalfAway(acc[i], kFrac);
    want[i] = static_cast<std::int32_t>(
        r < kMin ? kMin : (r > kMax ? kMax : r));
  }
  EXPECT_EQ(want[0], 1);
  EXPECT_EQ(want[1], -1);  // the PR's tie-break bug would give 0 here
  for (const KernelOps* ops : Backends()) {
    std::vector<std::int32_t> out(acc.size(), 99);
    ops->writeback(out.data(), acc.data(), acc.size(), kFrac, kMin, kMax);
    EXPECT_EQ(out, want) << ops->name;
  }
}

TEST(Kernels, ReluAndMaxValueMatchBruteForce) {
  Rng rng(9);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 25u}) {
    const std::vector<std::int32_t> in =
        RandomI32(rng, n, -1000, 1000);
    std::vector<std::int32_t> want(n);
    std::int32_t want_max = -5000;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = in[i] > 0 ? in[i] : 0;
      want_max = std::max(want_max, in[i]);
    }
    for (const KernelOps* ops : Backends()) {
      std::vector<std::int32_t> out(n, 99);
      ops->relu(out.data(), in.data(), n);
      EXPECT_EQ(out, want) << ops->name;
      EXPECT_EQ(ops->max_value(in.data(), n, -5000), want_max)
          << ops->name;
    }
  }
}

// ------------------------------------------------------------- dispatch

struct BackendGuard {
  ~BackendGuard() { SetKernelBackend(KernelBackend::kAuto); }
};

TEST(Kernels, BackendDispatchHonorsOverride) {
  BackendGuard guard;
  SetKernelBackend(KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  const std::vector<KernelBackend> available = AvailableBackends();
  ASSERT_EQ(available.front(), KernelBackend::kScalar);
  for (const KernelBackend backend :
       {KernelBackend::kAvx2, KernelBackend::kAvx512}) {
    SCOPED_TRACE(KernelBackendName(backend));
    const bool live = backend == KernelBackend::kAvx2 ? Avx2Available()
                                                      : Avx512Available();
    EXPECT_EQ(std::count(available.begin(), available.end(), backend),
              live ? 1 : 0);
    if (live) {
      SetKernelBackend(backend);
      EXPECT_EQ(ActiveKernelBackend(), backend);
      EXPECT_EQ(ActiveKernels().name, KernelBackendName(backend));
    } else {
      EXPECT_THROW(SetKernelBackend(backend), Error);
      EXPECT_THROW((void)KernelsFor(backend), Error);
    }
  }
  // AVX-512 rides on the AVX2 table, so it never comes without it.
  EXPECT_TRUE(!Avx512Available() || Avx2Available());
  SetKernelBackend(KernelBackend::kAuto);
  // kAuto always resolves to a concrete backend: the widest available.
  EXPECT_EQ(ActiveKernelBackend(), available.back());
  EXPECT_EQ(&ActiveKernels(), &KernelsFor(available.back()));
}

/// Every backend's DB_SIM_KERNEL spelling parses back to it, in any
/// case, and anything else is a clean db::Error.
TEST(Kernels, BackendNamesRoundTrip) {
  for (const KernelBackend backend :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kAvx512}) {
    const std::string name = KernelBackendName(backend);
    EXPECT_EQ(ParseKernelBackend(name), backend) << name;
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(ParseKernelBackend(upper), backend) << upper;
  }
  EXPECT_EQ(ParseKernelBackend("avx512"), KernelBackend::kAvx512);
  EXPECT_THROW(ParseKernelBackend("avx"), Error);
  EXPECT_THROW(ParseKernelBackend("avx5122"), Error);
  EXPECT_THROW(ParseKernelBackend(""), Error);
}

// ---------------------------------------------------------------- arena

TEST(SimArena, ReusesCapacityAndKeepsItsBlocksAfterGrowth) {
  SimArena arena;
  EXPECT_EQ(arena.capacity_bytes(), 0u);

  // First run: several allocations, forcing at least one growth.
  std::int32_t* a = arena.AllocZeroed<std::int32_t>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a[i], 0);
  std::int64_t* b = arena.Alloc<std::int64_t>(100 * 1024);  // ~800 KiB
  const std::size_t grown = arena.capacity_bytes();
  const std::size_t blocks = arena.block_count();
  EXPECT_GE(grown, 1000 * sizeof(std::int32_t) +
                       100 * 1024 * sizeof(std::int64_t));
  EXPECT_EQ(blocks, 2u);

  // Reset keeps every block, and so the pages the run touched.
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.capacity_bytes(), grown);
  EXPECT_EQ(arena.block_count(), blocks);

  // Warm run of the same shape: the same addresses, no further growth.
  EXPECT_EQ(arena.Alloc<std::int32_t>(1000), a);
  EXPECT_EQ(arena.Alloc<std::int64_t>(100 * 1024), b);
  EXPECT_EQ(arena.capacity_bytes(), grown);
  EXPECT_EQ(arena.block_count(), blocks);

  // Alignment contract: every allocation is 64-byte aligned.
  arena.Reset();
  for (int i = 0; i < 8; ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(
        arena.Alloc<std::byte>(static_cast<std::size_t>(3 + i)));
    EXPECT_EQ(addr % 64, 0u);
  }

  // Rewind hands out everything allocated after a mark again, also when
  // it had spilled into a new block.
  SimArena scratch;
  (void)scratch.Alloc<std::byte>(100);
  const SimArena::Mark mark = scratch.mark();
  std::byte* first = scratch.Alloc<std::byte>(100);
  (void)scratch.Alloc<std::byte>(std::size_t{1} << 20);  // a second block
  EXPECT_EQ(scratch.block_count(), 2u);
  scratch.Rewind(mark);
  EXPECT_EQ(scratch.used_bytes(), 128u);  // 100 bytes, 64-byte aligned
  EXPECT_EQ(scratch.Alloc<std::byte>(100), first);
}

}  // namespace
}  // namespace db::sim
