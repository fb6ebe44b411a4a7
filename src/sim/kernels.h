// SoA fixed-point kernel layer for the simulator hot path.
//
// The functional simulator executes the folded datapath as dense MAC /
// activation sweeps over structure-of-arrays state: raw activations are
// int32 (every FixedFormat raw value fits — total_bits <= 32), weights
// are int32 or, for 2-byte formats, int16 read in place from the DRAM
// image, and accumulators are int64.  Convolution runs as register
// tiles (conv_tile: 8 output channels x 8 output pixels, the tap loop
// innermost) over an input the simulator has laid out zero-padded and
// split into stride phases, so one tile serves every stride.  The same
// tile serves the Winograd F(2x2, 3x3) route for 3x3 stride-1 layers as
// its GEMM: taps are then input channels and pixels are the batch's 2x2
// output tiles.  The tile computes in double: its operands are integers,
// and the simulator routes a layer to it only when every partial sum
// stays an integer below 2^53 in magnitude, where each fused
// multiply-add is exact — SumBits bounds a direct layer, WinogradSumBits
// a Winograd one, whose transformed operands are wider.  FC
// and recurrent rows run as batched dot products, one weight row
// against up to kDotBatch images' activations, so a batch reads each
// weight once.
// This header is the contract between the simulator and the three
// interchangeable kernel backends:
//
//   * scalar  — portable reference, always available
//   * avx2    — 4/8-lane vectorised variants (the conv tile on FMA, as
//               two 4-channel passes), compiled into the build on
//               x86-64 and selected at runtime only when the CPU
//               reports AVX2 and FMA
//   * avx512  — the avx2 table with the conv tile on AVX-512F: one zmm
//               accumulator per output channel, one 8-pixel load and 8
//               broadcast FMAs per tap; selected only when the CPU also
//               reports AVX-512F
//
// All backends are BIT-IDENTICAL by construction: every kernel either
// is elementwise or accumulates exact integer sums — int64 sums the
// simulator has proven cannot overflow 63 bits, or double sums it has
// proven stay below 2^53 — so summation order is immaterial.  The
// differential test suite pins this equivalence across the model zoo.
//
// The arena allocator below carries the per-run scratch state (layer
// activations, conv phase layouts and packed weights, accumulator
// tiles, gate buffers) so a steady-state serving replica performs no
// per-invocation heap churn after warm-up — the iob-versat
// emitter/arena idiom applied to simulation state.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace db::sim {

// ---------------------------------------------------------------------
// Rounding
// ---------------------------------------------------------------------

/// Arithmetic shift right by `frac_bits` with round-half-away-from-zero
/// on the discarded bits — the documented hardware rounder, matching
/// FixedFormat::Quantize.  (A bare `+ half; >> frac` rounds negative
/// ties toward +inf; subtracting the sign bit first repairs exactly the
/// tie case.)
inline std::int64_t RoundShiftHalfAway(std::int64_t v, int frac_bits) {
  if (frac_bits == 0) return v;
  const std::int64_t half = std::int64_t{1} << (frac_bits - 1);
  return (v + half - ((v >> 63) & 1)) >> frac_bits;
}

/// Wide variant for the __int128 fallback path (formats too wide for
/// int64 accumulation).
inline __int128 RoundShiftHalfAway128(__int128 v, int frac_bits) {
  if (frac_bits == 0) return v;
  const __int128 half = static_cast<__int128>(1) << (frac_bits - 1);
  return (v + half - (v < 0 ? 1 : 0)) >> frac_bits;
}

// ---------------------------------------------------------------------
// Exact-sum bounds
// ---------------------------------------------------------------------

/// A bound on a sum of `terms` products of an a-bit by a b-bit two's-
/// complement integer: |sum| <= terms * 2^(a-1) * 2^(b-1) < 2^SumBits,
/// and so is every partial sum.
constexpr int SumBits(int a_bits, int b_bits, std::int64_t terms) {
  return (a_bits - 1) + (b_bits - 1) +
         std::bit_width(static_cast<std::uint64_t>(terms));
}

/// conv_tile sums in double, which holds every integer up to 2^53: its
/// sums are exact while SumBits(weight, activation, taps) stays within
/// this bound.
inline constexpr int kConvTileExactBits = 53;

/// The bound of a Winograd F(2x2, 3x3) layer, whose 3x3 kernel G is
/// scaled by 2 so every transform is integer: a transformed weight
/// G' g G'^T (G' = 2G, rows summing to at most 3 in magnitude) stays
/// within 9 * 2^(a-1), a transformed input B^T d B within 4 * 2^(b-1),
/// the GEMM sums `group_in` of their products, and the output transform
/// A^T M A adds 9 such sums.  Every partial sum of that chain is below
/// 324 * group_in * 2^(a-1) * 2^(b-1) < 2^WinogradSumBits, the 9 being
/// ceil(log2(9 * 4 * 9)).
constexpr int WinogradSumBits(int a_bits, int b_bits, std::int64_t group_in) {
  return (a_bits - 1) + (b_bits - 1) +
         std::bit_width(static_cast<std::uint64_t>(group_in)) + 9;
}

/// The fewest input channels per group the Winograd route takes, as
/// measured by bench/micro_framework's BM_CifarConv2Geometry rows (one
/// 3x3 stride-1 layer, 8x8 output, 16 output channels, RunBatch of 4)
/// built with the route forced on and off, on the 8x8 AVX-512 conv tile
/// of a 4-vCPU Xeon.  Winograd over direct host time, the median over 20
/// alternating pairs (each run the best of 5), was 1.14 at 8 input
/// channels, 1.10 at 16, 1.07 at 24 and 1.09 at 32; a second series of
/// 20 pairs read 1.05 at 32, 1.05 at 40, 1.03 at 48, 0.97 at 56 and 0.97
/// at 64, the route winning 2, 1, 4, 15 and 16 of them.  (On the earlier
/// 4x8 AVX2 tile the route already won from 24 to 32 channels.)  So
/// Cifar's 16-channel conv2 and MNIST's 1- and 8-channel convs stay
/// direct, and Alexnet's and NiN's, with 192 to 384 channels per group,
/// route.  (At MNIST conv2's 3x3 output the route measured faster from 16
/// channels, 0.90, as the direct tile fills only 3 of its 8 pixel lanes
/// there.)
inline constexpr std::int64_t kWinogradMinGroupIn = 56;

/// The route rule, in one place: a convolution runs as exact Winograd
/// F(2x2, 3x3) on conv_tile when it is 3x3 with stride 1, has at least
/// kWinogradMinGroupIn input channels per group, and its weight word by
/// activation bound fits the tile's exact range.  Every other layer runs
/// the direct tile.
constexpr bool WinogradRoute(std::int64_t kernel, std::int64_t stride,
                             std::int64_t group_in, int word_bits,
                             int format_bits) {
  return kernel == 3 && stride == 1 && group_in >= kWinogradMinGroupIn &&
         WinogradSumBits(word_bits, format_bits, group_in) <=
             kConvTileExactBits;
}

// ---------------------------------------------------------------------
// Kernel ops table
// ---------------------------------------------------------------------

/// The conv_tile shape: output channels x output pixels per call.
inline constexpr std::size_t kConvTileChannels = 8;
inline constexpr std::size_t kConvTilePixels = 8;

/// The most activation vectors one batched dot call reads.
inline constexpr std::size_t kDotBatch = 4;

/// dot's arithmetic at any accumulator width: the scalar backend runs it
/// at int64, the simulator's __int128 path at full width.  The weight
/// loop is outermost, so each weight is read once for the whole batch.
template <typename Acc, typename W>
void DotReference(Acc* out, const W* w, const std::int32_t* const* x,
                  std::size_t batch, std::size_t n) {
  Acc acc[kDotBatch] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t wi = w[i];
    for (std::size_t b = 0; b < batch; ++b) acc[b] += Acc{wi * x[b][i]};
  }
  for (std::size_t b = 0; b < batch; ++b) out[b] = acc[b];
}

/// conv_tile's arithmetic over operands of type T into Acc: the scalar
/// backend runs it on doubles, the simulator's integer paths on int32
/// operands at int64 or __int128.  Each product is formed in T's
/// promotion with int64 (double for doubles, exact int64 for int32s).
template <typename Acc, typename T>
void ConvTileReference(Acc* acc, const T* w, const T* in,
                       const std::int64_t* off, std::size_t taps) {
  using Product = std::common_type_t<T, std::int64_t>;
  constexpr std::size_t kC = kConvTileChannels;
  constexpr std::size_t kP = kConvTilePixels;
  for (std::size_t i = 0; i < kC * kP; ++i) acc[i] = 0;
  for (std::size_t t = 0; t < taps; ++t) {
    const T* x = in + off[t];
    for (std::size_t j = 0; j < kC; ++j) {
      const Product wj = w[t * kC + j];
      for (std::size_t i = 0; i < kP; ++i) acc[j * kP + i] += Acc{wj * x[i]};
    }
  }
}

/// The vectorisable inner loops of the datapath, dispatched once per
/// process (or overridden per test).  All pointers may be unaligned.
struct KernelOps {
  const char* name;

  /// One FC/recurrent weight row against `batch` activation vectors
  /// (1 <= batch <= kDotBatch), each of length n:
  ///   out[b] = sum_{i < n} int64(w[i]) * x[b][i]
  /// Each weight is loaded once and feeds every vector.
  void (*dot)(std::int64_t* out, const std::int32_t* w,
              const std::int32_t* const* x, std::size_t batch,
              std::size_t n);

  /// dot with int16 weights — 2-byte formats, whose weights the
  /// simulator views in place.
  void (*dot_w16)(std::int64_t* out, const std::int16_t* w,
                  const std::int32_t* const* x, std::size_t batch,
                  std::size_t n);

  /// The register tile of a convolution: kConvTileChannels output
  /// channels x kConvTilePixels consecutive output pixels of one row,
  ///   acc[j * kConvTilePixels + i] =
  ///       sum_{t < taps} w[t * kConvTileChannels + j] * in[off[t] + i]
  /// Tap t of every pixel is one contiguous load at in + off[t]; the
  /// caller lays the input out so that no tap needs clipping.  Operands
  /// are integer-valued doubles whose bound over `taps` (SumBits for a
  /// direct convolution, WinogradSumBits for one position of the
  /// Winograd GEMM, where taps are input channels and pixels are 2x2
  /// output tiles) is at most kConvTileExactBits, so each multiply-add
  /// is exact and the result does not depend on the order of the sum.
  void (*conv_tile)(double* acc, const double* w, const double* in,
                    const std::int64_t* off, std::size_t taps);

  /// out[i] = clamp(RoundShiftHalfAway(acc[i], frac_bits), raw_min,
  /// raw_max) — the accumulator writeback stage of the synergy-neuron
  /// pipeline.
  void (*writeback)(std::int32_t* out, const std::int64_t* acc,
                    std::size_t n, int frac_bits, std::int32_t raw_min,
                    std::int32_t raw_max);

  /// out[i] = max(in[i], 0) — the ReLU activation lane.
  void (*relu)(std::int32_t* out, const std::int32_t* in, std::size_t n);

  /// Running max of in[0..n) seeded with `init` (max-pool windows,
  /// softmax max-subtraction).
  std::int32_t (*max_value)(const std::int32_t* in, std::size_t n,
                            std::int32_t init);
};

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

enum class KernelBackend {
  kAuto,    // the widest backend compiled in that the CPU supports
  kScalar,  // force the portable reference kernels
  kAvx2,    // force the AVX2 kernels (throws if unavailable)
  kAvx512,  // force the AVX-512 conv tile (throws if unavailable)
};

std::string KernelBackendName(KernelBackend backend);

/// The backend a name denotes ("auto" | "scalar" | "avx2" | "avx512",
/// any case), as DB_SIM_KERNEL spells it.  Throws db::Error otherwise.
KernelBackend ParseKernelBackend(const std::string& name);

/// True when the AVX2 kernels are compiled into this binary AND the
/// running CPU advertises AVX2 and FMA.
bool Avx2Available();

/// True when the AVX-512 conv tile is compiled into this binary AND the
/// running CPU advertises AVX-512F on top of Avx2Available().
bool Avx512Available();

/// The concrete backends this host can run, scalar first, narrowest to
/// widest (backend-parametrised tests and benches iterate these).
std::vector<KernelBackend> AvailableBackends();

/// Override the backend (tests, benches, DB_SIM_KERNEL env).  Throws
/// db::Error when forcing a SIMD backend on a host without it.
void SetKernelBackend(KernelBackend backend);

/// The backend requests resolve to: a concrete backend, never kAuto.
/// Honors SetKernelBackend first, then the DB_SIM_KERNEL environment
/// variable (see ParseKernelBackend), then CPU detection.
KernelBackend ActiveKernelBackend();

/// The ops table for ActiveKernelBackend().
const KernelOps& ActiveKernels();

/// One backend's table, directly (differential tests compare them).
/// kAuto resolves as ActiveKernelBackend() would without an override;
/// throws db::Error for a SIMD backend this host cannot run.
const KernelOps& KernelsFor(KernelBackend backend);

// ---------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------

/// Bump allocator for per-run simulator scratch.  Reset() recycles the
/// committed memory without releasing it, so a warm simulator reuses one
/// stable footprint run after run; a run that overflows grows the chain
/// by one block at least as large as the blocks before it, and the
/// chain is kept, pages already touched included.  Allocations are 64-byte aligned (cache line /
/// full YMM beat).  Not thread-safe: an arena belongs to exactly one
/// simulator, which one thread at a time drives.
class SimArena {
 public:
  SimArena() = default;
  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;
  ~SimArena();

  /// Uninitialised scratch of `count` Ts, valid until the next Reset().
  template <typename T>
  T* Alloc(std::size_t count) {
    return static_cast<T*>(AllocBytes(count * sizeof(T)));
  }

  /// Zero-initialised variant.
  template <typename T>
  T* AllocZeroed(std::size_t count) {
    T* p = Alloc<T>(count);
    for (std::size_t i = 0; i < count; ++i) p[i] = T{};
    return p;
  }

  /// Recycle all allocations; every block, and so every page already
  /// touched, is retained.
  void Reset();

  /// The allocation point, for a later Rewind().
  struct Mark {
    std::size_t block = 0;
    std::size_t block_used = 0;
    std::size_t used = 0;
  };
  Mark mark() const {
    return {current_, blocks_.empty() ? 0 : blocks_[current_].used, used_};
  }

  /// Recycle every allocation made since `m` (scratch whose lifetime
  /// ends before the allocations that follow it).
  void Rewind(const Mark& m);

  /// Total bytes of backing capacity (diagnostics / tests).
  std::size_t capacity_bytes() const;
  /// Bytes handed out since the last Reset().
  std::size_t used_bytes() const { return used_; }
  /// Number of backing blocks: logarithmic in the footprint, as each new
  /// block at least doubles the capacity, and constant once warm.
  std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* AllocBytes(std::size_t bytes);
  /// A 64-byte aligned block: heap memory when small, an anonymous
  /// mapping from a size up (kernels.cpp), so a large block released
  /// with the arena returns its pages to the system.
  static std::byte* NewBlock(std::size_t bytes);
  static void DeleteBlock(const Block& b);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // block accepting allocations
  std::size_t used_ = 0;     // bytes since Reset()
};

}  // namespace db::sim
