// Unit tests for the SoA kernel layer (sim/kernels.h): the rounding
// helpers, both kernel backends (bit-for-bit against each other and
// against brute-force references, across saturation and tie edges), the
// runtime backend dispatch, and the scratch arena's reuse contract.
#include "sim/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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

/// Both tables when AVX2 is live on this host, else just the scalar one.
std::vector<const KernelOps*> Backends() {
  std::vector<const KernelOps*> ops{&ScalarKernels()};
  if (Avx2Available()) ops.push_back(&Avx2Kernels());
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
      EXPECT_EQ(ops->dot(a.data(), b.data(), n), want)
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
      EXPECT_EQ(ops->dot_w16(w.data(), x.data(), n), want)
          << ops->name << " n=" << n;
  }
}

TEST(Kernels, ConvTileMatchesBruteForce) {
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  Rng rng(10);
  for (const std::size_t taps :
       {1u, 2u, 3u, 7u, 9u, 25u, 121u, 363u, 1200u, 2304u, 2400u}) {
    // Random tap offsets into an input buffer sized exactly to the
    // furthest tile load, so an over-read is a sanitizer error.  Weights
    // and activations reach 2^24 in magnitude: a 2400-tap sum stays
    // below 2^60, inside the narrow guard's int64 bound.
    std::vector<std::int64_t> off(taps);
    std::size_t extent = 0;
    const std::size_t span = 1 + rng.UniformInt(4 * taps);
    for (auto& o : off) {
      o = static_cast<std::int64_t>(rng.UniformInt(span));
      extent = std::max(extent, static_cast<std::size_t>(o) + kP);
    }
    const std::vector<std::int32_t> in =
        RandomI32(rng, extent, -(1 << 24), 1 << 24);
    std::vector<std::int32_t> w =
        RandomI32(rng, taps * kC, -(1 << 24), 1 << 24);
    w.front() = -(1 << 24);
    w.back() = 1 << 24;
    std::vector<std::int64_t> want(kC * kP, 0);
    for (std::size_t t = 0; t < taps; ++t)
      for (std::size_t j = 0; j < kC; ++j)
        for (std::size_t i = 0; i < kP; ++i)
          want[j * kP + i] += static_cast<std::int64_t>(w[t * kC + j]) *
                              in[static_cast<std::size_t>(off[t]) + i];
    for (const KernelOps* ops : Backends()) {
      std::vector<std::int64_t> acc(kC * kP, 99);
      ops->conv_tile(acc.data(), w.data(), in.data(), off.data(), taps);
      EXPECT_EQ(acc, want) << ops->name << " taps=" << taps;
    }
  }
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
  if (Avx2Available()) {
    SetKernelBackend(KernelBackend::kAvx2);
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kAvx2);
    EXPECT_STREQ(ActiveKernels().name, "avx2");
  } else {
    EXPECT_THROW(SetKernelBackend(KernelBackend::kAvx2), Error);
  }
  SetKernelBackend(KernelBackend::kAuto);
  // kAuto always resolves to a concrete backend.
  EXPECT_NE(ActiveKernelBackend(), KernelBackend::kAuto);
}

// ---------------------------------------------------------------- arena

TEST(SimArena, ReusesCapacityAndCoalescesAfterGrowth) {
  SimArena arena;
  EXPECT_EQ(arena.capacity_bytes(), 0u);

  // First run: several allocations, forcing at least one growth.
  std::int32_t* a = arena.AllocZeroed<std::int32_t>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a[i], 0);
  (void)arena.Alloc<std::int64_t>(100 * 1024);  // ~800 KiB: must grow
  const std::size_t grown = arena.capacity_bytes();
  EXPECT_GE(grown, 1000 * sizeof(std::int32_t) +
                       100 * 1024 * sizeof(std::int64_t));

  // Reset keeps the footprint and coalesces into one block.
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_GE(arena.capacity_bytes(), grown);
  EXPECT_EQ(arena.block_count(), 1u);

  // Warm run of the same shape: no further growth.
  (void)arena.Alloc<std::int32_t>(1000);
  (void)arena.Alloc<std::int64_t>(100 * 1024);
  EXPECT_EQ(arena.capacity_bytes(), arena.capacity_bytes());
  EXPECT_EQ(arena.block_count(), 1u);

  // Alignment contract: every allocation is 64-byte aligned.
  arena.Reset();
  for (int i = 0; i < 8; ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(
        arena.Alloc<std::byte>(static_cast<std::size_t>(3 + i)));
    EXPECT_EQ(addr % 64, 0u);
  }
}

}  // namespace
}  // namespace db::sim
