#include "sim/functional_sim.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/math_util.h"
#include "nn/cmac.h"

namespace db {
namespace {

/// The widest exact sum (sim::SumBits) any layer accumulates, bias
/// included — the bound that decides whether int64 accumulation can ever
/// overflow for this design.  Weight-fed MACs multiply a weight word by
/// an activation of the format, and the word counts at its stored width
/// `word_bits`: a flipped bit can set any bit of it.  LRN squares
/// activations, which the format bounds.
int MaxAccBits(const Network& net, int word_bits, int format_bits) {
  int worst = 0;
  for (const IrLayer& layer : net.layers()) {
    if (layer.input_ids.empty()) continue;
    const BlobShape& in_shape =
        net.layer(layer.input_ids.front()).output_shape;
    std::int64_t terms = 0;
    int operand_bits = word_bits;
    switch (layer.kind()) {
      case LayerKind::kConvolution: {
        const ConvolutionParams& p = *layer.def.conv;
        const std::int64_t k = p.kernel_size;
        terms = (in_shape.channels / p.group) * k * k + 1;
        break;
      }
      case LayerKind::kInnerProduct:
        terms = in_shape.NumElements() + 1;
        break;
      case LayerKind::kLrn:
        terms = layer.def.lrn->local_size;
        operand_bits = format_bits;
        break;
      case LayerKind::kRecurrent:
        terms = in_shape.NumElements() +
                layer.def.recurrent->num_output + 1;
        break;
      case LayerKind::kLstm:
        terms = in_shape.NumElements() + layer.def.lstm->num_output + 1;
        break;
      default:
        continue;
    }
    worst = std::max(worst, sim::SumBits(operand_bits, format_bits, terms));
  }
  return worst;
}

// ---------------------------------------------------------------------
// Accumulation math policies
//
// NarrowMath drives the SoA kernel backend with exact int64 sums; it is
// selected only when MaxAccBits proves 63-bit accumulation cannot
// overflow, which is what makes the vector lane order immaterial
// (bit-identical to scalar).  WideMath is the __int128 fallback for
// formats where that proof fails; it shares the round-half-away
// writeback so both paths implement the same hardware rounder.
// (Convolution picks its route and tile per layer; see RunMacLayer and
// RunConv.)
// ---------------------------------------------------------------------

struct NarrowMath {
  using Acc = std::int64_t;
  const sim::KernelOps& ops;

  template <typename W>
  void Dot(Acc* out, const W* w, const std::int32_t* const* x,
           std::size_t batch, std::size_t n) const {
    if constexpr (sizeof(W) == 2) ops.dot_w16(out, w, x, batch, n);
    else ops.dot(out, w, x, batch, n);
  }
  void Writeback(std::int32_t* out, const Acc* acc, std::size_t n,
                 const FixedFormat& fmt) const {
    ops.writeback(out, acc, n, fmt.frac_bits(),
                  static_cast<std::int32_t>(fmt.raw_min()),
                  static_cast<std::int32_t>(fmt.raw_max()));
  }
};

struct WideMath {
  using Acc = __int128;

  template <typename W>
  void Dot(Acc* out, const W* w, const std::int32_t* const* x,
           std::size_t batch, std::size_t n) const {
    sim::DotReference(out, w, x, batch, n);
  }
  void Writeback(std::int32_t* out, const Acc* acc, std::size_t n,
                 const FixedFormat& fmt) const {
    const Acc raw_max = fmt.raw_max();
    const Acc raw_min = fmt.raw_min();
    for (std::size_t i = 0; i < n; ++i) {
      Acc v = sim::RoundShiftHalfAway128(acc[i], fmt.frac_bits());
      if (v > raw_max) v = raw_max;
      if (v < raw_min) v = raw_min;
      out[i] = static_cast<std::int32_t>(v);
    }
  }
};

/// One weight row against one activation vector (recurrent and LSTM
/// rows, which have no batch to share the row with).
template <typename Math, typename W>
typename Math::Acc DotOne(const Math& math, const W* w, const std::int32_t* x,
                          std::size_t n) {
  typename Math::Acc sum = 0;
  math.Dot(&sum, w, &x, 1, n);
  return sum;
}

/// out[i] = fmt.Mul(a, b) from the products prod[i] = int64(a) * b of
/// raw values of the format: a format has at most 32 bits, so the
/// product is exact, and the writeback stage rounds and saturates it
/// exactly as FixedFormat::Mul does.
void MulWriteback(const sim::KernelOps& ops, const FixedFormat& fmt,
                  std::int32_t* out, const std::int64_t* prod,
                  std::size_t n) {
  ops.writeback(out, prod, n, fmt.frac_bits(),
                static_cast<std::int32_t>(fmt.raw_min()),
                static_cast<std::int32_t>(fmt.raw_max()));
}

/// The layers whose weights RunMacLayer reads.
bool IsMacLayer(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConvolution:
    case LayerKind::kInnerProduct:
    case LayerKind::kRecurrent:
    case LayerKind::kLstm:
    case LayerKind::kAssociative:
      return true;
    default:
      return false;
  }
}

}  // namespace

FunctionalSimulator::FunctionalSimulator(const Network& net,
                                         const AcceleratorDesign& design,
                                         const WeightStore& weights)
    : net_(net),
      design_(design),
      fmt_(design.config.format),
      owned_image_(design.memory_map.total_bytes()) {
  WriteWeights(owned_image_, net, design, weights);
  Bind(owned_image_);
}

FunctionalSimulator::FunctionalSimulator(const Network& net,
                                         const AcceleratorDesign& design,
                                         const MemoryImage& image)
    : net_(net), design_(design), fmt_(design.config.format) {
  Bind(image);
}

void FunctionalSimulator::Bind(const MemoryImage& image) {
  // Element indices of every layer's parameters (region bases are
  // port-aligned, so every element is naturally aligned).
  elem_bytes_ = static_cast<int>(design_.config.ElementBytes());
  DB_CHECK_MSG(image.size() >= design_.memory_map.total_bytes(),
               "image smaller than the design's memory map");
  bytes_ = image.data();
  slots_.assign(net_.layers().size(), {});
  for (const IrLayer* layer : net_.ComputeLayers()) {
    if (ParamCountsFor(*layer).Total() == 0) continue;
    const WeightRegionLayout layout = LayoutWeightRegion(*layer, design_);
    DB_CHECK_MSG(layout.weights_addr % elem_bytes_ == 0,
                 "weight region misaligned for its element size");
    const auto slot = [&](std::int64_t addr, std::int64_t count) {
      return Slot{addr / elem_bytes_, count};
    };
    slots_[static_cast<std::size_t>(layer->id)] = {
        slot(layout.weights_addr, layout.counts.weights),
        slot(layout.bias_addr, layout.counts.bias),
        slot(layout.recurrent_addr, layout.counts.recurrent)};
  }
  for (const ApproxLutSpec& spec : design_.lut_specs)
    luts_.push_back(ApproxLut::Generate(spec));
  last_use_.assign(net_.layers().size(), 0);
  for (const IrLayer& layer : net_.layers()) {
    last_use_[static_cast<std::size_t>(layer.id)] = layer.id;
    for (const int in : layer.input_ids)
      last_use_[static_cast<std::size_t>(in)] = layer.id;
  }
  last_use_[static_cast<std::size_t>(net_.OutputLayer().id)] =
      std::numeric_limits<int>::max();
  // int64 accumulation is safe while every sum stays within 62 bits
  // (one bit of headroom below the sign).
  narrow_ = MaxAccBits(net_, 8 * elem_bytes_, fmt_.total_bits()) <= 62;
  // Resolve the kernel backend now, on the constructing thread: a bad
  // DB_SIM_KERNEL value must surface as db::Error where the CLI can
  // report it, not escape a replica lane thread and terminate.
  (void)sim::ActiveKernels();
}

template <typename W>
FunctionalSimulator::Params<W> FunctionalSimulator::ParamsOf(
    const IrLayer& layer) const {
  const std::array<Slot, 3>& slots =
      slots_[static_cast<std::size_t>(layer.id)];
  DB_CHECK_MSG(slots[0].count > 0, "layer has no parameters bound");
  const auto at = [&](const Slot& slot) -> const W* {
    if (slot.count == 0) return nullptr;
    if (elem_bytes_ == static_cast<int>(sizeof(W)))
      return reinterpret_cast<const W*>(bytes_) + slot.index;
    // 1- and 3-byte elements have no native word: widen them from the
    // image on every run, so a flipped bit reaches the next Run() here
    // too.
    W* wide = arena_.Alloc<W>(static_cast<std::size_t>(slot.count));
    const std::uint8_t* src = bytes_ + slot.index * elem_bytes_;
    for (std::int64_t i = 0; i < slot.count; ++i)
      wide[i] = static_cast<W>(LoadElem(src + i * elem_bytes_, elem_bytes_));
    return wide;
  };
  return {at(slots[0]), at(slots[1]), at(slots[2])};
}

const ApproxLut& FunctionalSimulator::LutFor(LutFunction fn) const {
  for (const ApproxLut& lut : luts_)
    if (lut.spec().function == fn) return lut;
  DB_THROW("design has no Approx LUT for function " << LutFunctionName(fn));
}

// ---------------------------------------------------------------------
// MAC layers (templated over the accumulation policy)
// ---------------------------------------------------------------------

template <typename Math, typename W>
void FunctionalSimulator::RunConv(const Math& math, const Params<W>& params,
                                  const IrLayer& layer, const RawTensor& in0,
                                  RawTensor& out) const {
  using Acc = typename Math::Acc;
  constexpr std::int64_t kC = sim::kConvTileChannels;
  constexpr std::int64_t kP = sim::kConvTilePixels;
  const ConvolutionParams& p = *layer.def.conv;
  const int f = fmt_.frac_bits();
  const std::int64_t s = p.stride;
  const std::int64_t k = p.kernel_size;
  const std::int64_t in_c = in0.shape.channels;
  const std::int64_t in_h = in0.shape.height;
  const std::int64_t in_w = in0.shape.width;
  const std::int64_t out_h = out.shape.height;
  const std::int64_t out_w = out.shape.width;
  const std::int64_t group_in = in_c / p.group;
  const std::int64_t group_out = out.shape.channels / p.group;
  const std::int64_t taps = group_in * k * k;

  // The sweep over operands of type T, with a tile that sums them into
  // TileAcc.
  const auto sweep = [&]<typename TileAcc, typename T>(
                         void (*tile)(TileAcc*, const T*, const T*,
                                      const std::int64_t*, std::size_t)) {
    // Layout: the zero-padded input split into s column phases,
    //   phased[c][r][iy][j] = padded[c][iy][j * s + r],
    // so tap (ky, kx) of output pixels x0..x0+kP-1 on row y is the
    // contiguous run phased[c][kx % s][y * s + ky][x0 + kx / s + i].
    // Rows hold every column the last tile's full-width loads reach;
    // pixels past out_w read in-range values or zeros and are discarded.
    const std::int64_t rows = (out_h - 1) * s + k;
    const std::int64_t row_w = CeilDiv(out_w, kP) * kP + (k - 1) / s;
    const std::int64_t plane = s * rows * row_w;  // one channel, all phases
    T* phased = arena_.AllocZeroed<T>(static_cast<std::size_t>(in_c * plane));
    for (std::int64_t c = 0; c < in_c; ++c)
      for (std::int64_t r = 0; r < s; ++r) {
        // Phase columns j whose source column j * s + r - pad is inside
        // the input.
        const std::int64_t j_lo =
            CeilDiv(std::max<std::int64_t>(p.pad - r, 0), s);
        const std::int64_t j_hi = std::min(
            row_w, CeilDiv(std::max<std::int64_t>(in_w + p.pad - r, 0), s));
        for (std::int64_t iy = 0; iy < rows; ++iy) {
          const std::int64_t src_y = iy - p.pad;
          if (src_y < 0 || src_y >= in_h) continue;
          const std::int32_t* src = in0.raw + (c * in_h + src_y) * in_w;
          T* dst = phased + ((c * s + r) * rows + iy) * row_w;
          for (std::int64_t j = j_lo; j < j_hi; ++j)
            dst[j] = static_cast<T>(src[j * s + r - p.pad]);
        }
      }

    // Tap t = (g, ky, kx) — the weight order within an output channel —
    // as an offset from the tile's origin.
    std::int64_t* off =
        arena_.Alloc<std::int64_t>(static_cast<std::size_t>(taps));
    for (std::int64_t g = 0, t = 0; g < group_in; ++g)
      for (std::int64_t ky = 0; ky < k; ++ky)
        for (std::int64_t kx = 0; kx < k; ++kx, ++t)
          off[t] = ((g * s + kx % s) * rows + ky) * row_w + kx / s;

    // Per block of kC output channels of one group: pack the weights as
    // w[t][kC] (zero past the group's last channel), then sweep the
    // output in kC x kP register tiles.  The weights are read from the
    // image here, on every run.
    T* w_pack = arena_.Alloc<T>(static_cast<std::size_t>(taps * kC));
    TileAcc* sums = arena_.Alloc<TileAcc>(static_cast<std::size_t>(kC * kP));
    Acc row[kP];
    for (std::int64_t grp = 0; grp < p.group; ++grp) {
      const T* in_g = phased + grp * group_in * plane;
      const std::int64_t oc_end = (grp + 1) * group_out;
      for (std::int64_t oc0 = grp * group_out; oc0 < oc_end; oc0 += kC) {
        const std::int64_t n_oc = std::min(kC, oc_end - oc0);
        if (n_oc < kC) std::fill(w_pack, w_pack + taps * kC, T{0});
        for (std::int64_t j = 0; j < n_oc; ++j) {
          const W* w_oc = params.weights + (oc0 + j) * taps;
          for (std::int64_t t = 0; t < taps; ++t)
            w_pack[t * kC + j] = static_cast<T>(w_oc[t]);
        }
        for (std::int64_t y = 0; y < out_h; ++y)
          for (std::int64_t x0 = 0; x0 < out_w; x0 += kP) {
            tile(sums, w_pack, in_g + y * s * row_w + x0, off,
                 static_cast<std::size_t>(taps));
            const std::int64_t n_x = std::min(kP, out_w - x0);
            for (std::int64_t j = 0; j < n_oc; ++j) {
              const Acc bias = params.template Bias<Acc>(oc0 + j, f);
              for (std::int64_t i = 0; i < n_x; ++i)
                row[i] = static_cast<Acc>(sums[j * kP + i]) + bias;
              math.Writeback(out.raw + ((oc0 + j) * out_h + y) * out_w + x0,
                             row, static_cast<std::size_t>(n_x), fmt_);
            }
          }
      }
    }
  };

  // The kernel backend's double tile wherever its sums are provably
  // exact (a weight word, counted at its stored width as in MaxAccBits,
  // by an activation of the format, over `taps` terms; the bias joins
  // after); else the integer reference tile at the policy's width.
  if (sim::SumBits(8 * elem_bytes_, fmt_.total_bits(), taps) <=
      sim::kConvTileExactBits)
    sweep(sim::ActiveKernels().conv_tile);
  else
    sweep(&sim::ConvTileReference<Acc, std::int32_t>);
}

// The most images one RunWinograd call takes.  Four already fill 196 of
// 200 GEMM lanes on Alexnet's conv3-5, while the transformed input grows
// with every image (1.6 MB each for conv3).
constexpr std::size_t kWinogradBatch = 4;

// Winograd F(2x2, 3x3) (Lavin & Gray) with G scaled by 2, so that every
// transform is integer.  Its 1-D transforms, applied to the columns of a
// tile and then to its rows:
//   input   B^T x = (x0 - x2, x1 + x2, x2 - x1, x1 - x3)
//   weight  G' g  = (2 g0, g0 + g1 + g2, g0 - g1 + g2, 2 g2)
//   output  A^T m = (m0 + m1 + m2, m1 - m2 - m3)
// A^T [(G' g G'^T) . (B^T d B)] A is then exactly 4x the 2x2 outputs.
template <typename Math, typename W>
void FunctionalSimulator::RunWinograd(const Math& math,
                                      const Params<W>& params,
                                      const IrLayer& layer,
                                      const RawTensor* in0, RawTensor* out,
                                      std::size_t batch) const {
  using Acc = typename Math::Acc;
  constexpr std::int64_t kC = sim::kConvTileChannels;
  constexpr std::int64_t kP = sim::kConvTilePixels;
  constexpr std::int64_t kPos = 16;  // the 4x4 transform domain
  // Output-channel blocks per pass over the transformed input, 32
  // channels in all: each position's slice of it is then read from cache
  // kBlocks times.
  constexpr std::int64_t kBlocks = 4;
  const ConvolutionParams& p = *layer.def.conv;
  const int f = fmt_.frac_bits();
  const std::int64_t in_h = in0[0].shape.height;
  const std::int64_t in_w = in0[0].shape.width;
  const std::int64_t out_h = out[0].shape.height;
  const std::int64_t out_w = out[0].shape.width;
  const std::int64_t group_in = in0[0].shape.channels / p.group;
  const std::int64_t group_out = out[0].shape.channels / p.group;
  // The GEMM's pixel axis: every image's 2x2 output tiles, image by
  // image, in panels of kP (the lanes past the last tile are zero).
  const std::int64_t tiles_x = CeilDiv(out_w, 2);
  const std::int64_t tiles_y = CeilDiv(out_h, 2);
  const std::int64_t per_image = tiles_y * tiles_x;
  const std::int64_t tiles = static_cast<std::int64_t>(batch) * per_image;
  const std::int64_t panels = CeilDiv(tiles, kP);
  // Where tile t sits in a panel-major array of `rows` x kP panels.
  const auto lane_of = [&](std::int64_t t, std::int64_t rows) {
    return (t / kP * rows) * kP + t % kP;
  };
  const auto alloc = [&](std::int64_t n) {
    return arena_.Alloc<double>(static_cast<std::size_t>(n));
  };

  // The transform-domain arrays hold their 16 positions kP doubles (one
  // cache line) apart past their size, so that the 16 values of one tile
  // do not all map to one L1 set.
  // One group's transformed inputs, v[pos][panel][c][kP]: tap c of a
  // panel is one contiguous load at offset c * kP.
  const std::int64_t v_pos = panels * group_in * kP + kP;
  double* v = alloc(kPos * v_pos);
  for (std::int64_t pos = 0; pos < kPos; ++pos)
    for (std::int64_t c = 0; c < group_in; ++c)
      for (std::int64_t t = tiles; t < panels * kP; ++t)
        v[pos * v_pos + lane_of(t, group_in) + c * kP] = 0;
  std::int64_t* off =
      arena_.Alloc<std::int64_t>(static_cast<std::size_t>(group_in));
  for (std::int64_t c = 0; c < group_in; ++c) off[c] = c * kP;
  // One input channel of one image, zero-padded to whole 4x4 tiles; the
  // border is never written.
  const std::int64_t plane_w = 2 * tiles_x + 2;
  std::int32_t* plane = arena_.AllocZeroed<std::int32_t>(
      static_cast<std::size_t>((2 * tiles_y + 2) * plane_w));
  // Per block of kC output channels of a pass: transformed weights
  // u[pos][c][kC] and GEMM sums m[pos][panel][kC][kP].
  const std::int64_t u_pos = group_in * kC + kP;
  const std::int64_t m_pos = panels * kC * kP + kP;
  double* u = alloc(kBlocks * kPos * u_pos);
  double* m = alloc(kBlocks * kPos * m_pos);
  Acc* rows = arena_.Alloc<Acc>(static_cast<std::size_t>(4 * tiles_x));
  const sim::KernelOps& ops = sim::ActiveKernels();

  for (std::int64_t grp = 0; grp < p.group; ++grp) {
    // Input transform, B^T d B, of every tile of every image.
    for (std::size_t b = 0; b < batch; ++b)
      for (std::int64_t c = 0; c < group_in; ++c) {
        const std::int32_t* src =
            in0[b].raw + (grp * group_in + c) * in_h * in_w;
        for (std::int64_t y = 0; y < in_h; ++y)
          std::memcpy(plane + (y + p.pad) * plane_w + p.pad, src + y * in_w,
                      static_cast<std::size_t>(in_w) * sizeof(std::int32_t));
        for (std::int64_t ty = 0; ty < tiles_y; ++ty)
          for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
            const std::int32_t* d = plane + 2 * ty * plane_w + 2 * tx;
            std::int64_t col[4][4];  // B^T d
            for (std::int64_t j = 0; j < 4; ++j) {
              const std::int64_t x0 = d[j], x1 = d[plane_w + j],
                                 x2 = d[2 * plane_w + j],
                                 x3 = d[3 * plane_w + j];
              col[0][j] = x0 - x2;
              col[1][j] = x1 + x2;
              col[2][j] = x2 - x1;
              col[3][j] = x1 - x3;
            }
            double* dst = v + lane_of(
                static_cast<std::int64_t>(b) * per_image + ty * tiles_x + tx,
                group_in) + c * kP;
            for (std::int64_t i = 0; i < 4; ++i) {
              const std::int64_t* r = col[i];
              dst[(4 * i + 0) * v_pos] = static_cast<double>(r[0] - r[2]);
              dst[(4 * i + 1) * v_pos] = static_cast<double>(r[1] + r[2]);
              dst[(4 * i + 2) * v_pos] = static_cast<double>(r[2] - r[1]);
              dst[(4 * i + 3) * v_pos] = static_cast<double>(r[1] - r[3]);
            }
          }
      }

    const std::int64_t oc_end = (grp + 1) * group_out;
    for (std::int64_t oc0 = grp * group_out; oc0 < oc_end;
         oc0 += kBlocks * kC) {
      const std::int64_t n_oc = std::min(kBlocks * kC, oc_end - oc0);
      const std::int64_t blocks = CeilDiv(n_oc, kC);
      // Weight transform, G' g G'^T, from the image words on every run
      // (zero past the group's last channel).
      if (n_oc % kC != 0) {
        double* last = u + (blocks - 1) * kPos * u_pos;
        std::fill(last, last + kPos * u_pos, 0.0);
      }
      for (std::int64_t j = 0; j < n_oc; ++j)
        for (std::int64_t c = 0; c < group_in; ++c) {
          const W* g = params.weights + ((oc0 + j) * group_in + c) * 9;
          std::int64_t col[4][3];  // G' g
          for (std::int64_t kx = 0; kx < 3; ++kx) {
            const std::int64_t g0 = g[kx], g1 = g[3 + kx], g2 = g[6 + kx];
            col[0][kx] = 2 * g0;
            col[1][kx] = g0 + g1 + g2;
            col[2][kx] = g0 - g1 + g2;
            col[3][kx] = 2 * g2;
          }
          double* dst = u + j / kC * kPos * u_pos + c * kC + j % kC;
          for (std::int64_t i = 0; i < 4; ++i) {
            const std::int64_t* r = col[i];
            dst[(4 * i + 0) * u_pos] = static_cast<double>(2 * r[0]);
            dst[(4 * i + 1) * u_pos] = static_cast<double>(r[0] + r[1] + r[2]);
            dst[(4 * i + 2) * u_pos] = static_cast<double>(r[0] - r[1] + r[2]);
            dst[(4 * i + 3) * u_pos] = static_cast<double>(2 * r[2]);
          }
        }

      // The 16 GEMMs, one per transform position, on the conv tile.
      for (std::int64_t pos = 0; pos < kPos; ++pos)
        for (std::int64_t blk = 0; blk < blocks; ++blk)
          for (std::int64_t panel = 0; panel < panels; ++panel)
            ops.conv_tile(m + (blk * kPos + pos) * m_pos + panel * kC * kP,
                          u + (blk * kPos + pos) * u_pos,
                          v + pos * v_pos + panel * group_in * kP, off,
                          static_cast<std::size_t>(group_in));

      // Output transform, A^T M A = 4x the outputs (exact, and so is the
      // x0.25), then the bias and the writeback, two output rows per
      // tile row.
      for (std::int64_t j = 0; j < n_oc; ++j) {
        const Acc bias = params.template Bias<Acc>(oc0 + j, f);
        const double* m_j = m + j / kC * kPos * m_pos + j % kC * kP;
        for (std::size_t b = 0; b < batch; ++b)
          for (std::int64_t ty = 0; ty < tiles_y; ++ty) {
            Acc* row0 = rows;
            Acc* row1 = rows + 2 * tiles_x;
            for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
              const double* mt =
                  m_j + lane_of(static_cast<std::int64_t>(b) * per_image +
                                    ty * tiles_x + tx,
                                kC);
              double col[2][4];  // A^T M
              for (std::int64_t x = 0; x < 4; ++x) {
                const double m0 = mt[x * m_pos], m1 = mt[(4 + x) * m_pos],
                             m2 = mt[(8 + x) * m_pos],
                             m3 = mt[(12 + x) * m_pos];
                col[0][x] = m0 + m1 + m2;
                col[1][x] = m1 - m2 - m3;
              }
              Acc* dst[2] = {row0 + 2 * tx, row1 + 2 * tx};
              for (std::int64_t i = 0; i < 2; ++i) {
                const double* r = col[i];
                dst[i][0] =
                    static_cast<Acc>((r[0] + r[1] + r[2]) * 0.25) + bias;
                dst[i][1] =
                    static_cast<Acc>((r[1] - r[2] - r[3]) * 0.25) + bias;
              }
            }
            std::int32_t* y0 =
                out[b].raw + ((oc0 + j) * out_h + 2 * ty) * out_w;
            math.Writeback(y0, row0, static_cast<std::size_t>(out_w), fmt_);
            if (2 * ty + 1 < out_h)
              math.Writeback(y0 + out_w, row1,
                             static_cast<std::size_t>(out_w), fmt_);
          }
      }
    }
  }
}

template <typename Math, typename W>
void FunctionalSimulator::RunInnerProduct(const Math& math,
                                          const Params<W>& params,
                                          const IrLayer& layer,
                                          const RawTensor* in0,
                                          RawTensor* out,
                                          std::size_t batch) const {
  using Acc = typename Math::Acc;
  constexpr std::size_t kB = sim::kDotBatch;
  const InnerProductParams& p = *layer.def.fc;
  const int f = fmt_.frac_bits();
  const std::size_t in_n = in0[0].n;
  const std::size_t n_out = static_cast<std::size_t>(p.num_output);
  // acc[b * n_out + o]: every image's sums, so each weight row is read
  // once per kDotBatch images.
  Acc* acc = arena_.Alloc<Acc>(batch * n_out);
  for (std::size_t b0 = 0; b0 < batch; b0 += kB) {
    const std::size_t nb = std::min(kB, batch - b0);
    const std::int32_t* x[kB] = {};
    for (std::size_t b = 0; b < nb; ++b) x[b] = in0[b0 + b].raw;
    Acc sums[kB] = {};
    for (std::size_t o = 0; o < n_out; ++o) {
      math.Dot(sums, params.weights + o * in_n, x, nb, in_n);
      const Acc bias =
          params.template Bias<Acc>(static_cast<std::int64_t>(o), f);
      for (std::size_t b = 0; b < nb; ++b)
        acc[(b0 + b) * n_out + o] = bias + sums[b];
    }
  }
  for (std::size_t b = 0; b < batch; ++b)
    math.Writeback(out[b].raw, acc + b * n_out, n_out, fmt_);
}

template <typename Math>
void FunctionalSimulator::RunLrn(const Math& math, const IrLayer& layer,
                                 const RawTensor& in0,
                                 RawTensor& out) const {
  using Acc = typename Math::Acc;
  const LrnParams& p = *layer.def.lrn;
  const ApproxLut& lut = LutFor(LutFunction::kLrnPow);
  const sim::KernelOps& ops = sim::ActiveKernels();
  const std::int64_t half = p.local_size / 2;
  const std::int32_t alpha_raw = static_cast<std::int32_t>(
      fmt_.Quantize(p.alpha / static_cast<double>(p.local_size)));
  const std::int64_t one_raw = fmt_.Quantize(1.0);
  const std::int64_t raw_min = fmt_.raw_min();
  const std::int64_t raw_max = fmt_.raw_max();
  const std::int64_t channels = out.shape.channels;
  const std::size_t plane =
      static_cast<std::size_t>(out.shape.height * out.shape.width);
  // Channel c's output plane scales its input plane by
  //   pow(1 + (alpha / n) * sum_{|cc - c| <= half} in[cc]^2, -beta),
  // each step rounded as the datapath does.  The window sum slides
  // across the channels as exact Acc sums: leaving channels are taken
  // out before entering ones are added, so a sum never holds more than
  // local_size squares (the accumulation guard's bound).
  Acc* sum_sq = arena_.AllocZeroed<Acc>(plane);
  std::int64_t* prod = arena_.Alloc<std::int64_t>(plane);
  std::int32_t* scale = arena_.Alloc<std::int32_t>(plane);
  const auto slide = [&](std::int64_t cc, bool enter) {
    const std::int32_t* v = in0.raw + static_cast<std::size_t>(cc) * plane;
    if (enter) {
      for (std::size_t i = 0; i < plane; ++i)
        sum_sq[i] += Acc{std::int64_t{v[i]} * v[i]};
    } else {
      for (std::size_t i = 0; i < plane; ++i)
        sum_sq[i] -= Acc{std::int64_t{v[i]} * v[i]};
    }
  };
  for (std::int64_t cc = 0; cc < std::min(half, channels); ++cc)
    slide(cc, true);
  for (std::int64_t c = 0; c < channels; ++c) {
    if (c - half - 1 >= 0) slide(c - half - 1, false);
    if (c + half < channels) slide(c + half, true);
    // scale = Add(1, Mul(alpha, Writeback(sum))), then the LUT's
    // x^-beta, then out = Mul(in, scale).
    math.Writeback(scale, sum_sq, plane, fmt_);
    for (std::size_t i = 0; i < plane; ++i)
      prod[i] = std::int64_t{alpha_raw} * scale[i];
    MulWriteback(ops, fmt_, scale, prod, plane);
    for (std::size_t i = 0; i < plane; ++i)
      scale[i] = static_cast<std::int32_t>(
          std::clamp(one_raw + scale[i], raw_min, raw_max));
    lut.EvalRaw({scale, plane}, scale);
    const std::int32_t* in_c = in0.raw + static_cast<std::size_t>(c) * plane;
    for (std::size_t i = 0; i < plane; ++i)
      prod[i] = std::int64_t{in_c[i]} * scale[i];
    MulWriteback(ops, fmt_, out.raw + static_cast<std::size_t>(c) * plane,
                 prod, plane);
  }
}

template <typename Math, typename W>
void FunctionalSimulator::RunRecurrent(const Math& math,
                                       const Params<W>& params,
                                       const IrLayer& layer,
                                       const RawTensor& in0,
                                       RawTensor& out) const {
  using Acc = typename Math::Acc;
  const RecurrentParams& p = *layer.def.recurrent;
  const int f = fmt_.frac_bits();
  const std::int64_t in_n = in0.shape.NumElements();
  const std::size_t n_out = static_cast<std::size_t>(p.num_output);
  std::int32_t* h = arena_.AllocZeroed<std::int32_t>(n_out);
  std::int32_t* next = arena_.AllocZeroed<std::int32_t>(n_out);
  const ApproxLut* act = nullptr;
  if (p.activation == RecurrentActivation::kTanh)
    act = &LutFor(LutFunction::kTanh);
  else if (p.activation == RecurrentActivation::kSigmoid)
    act = &LutFor(LutFunction::kSigmoid);
  for (std::int64_t t = 0; t < p.time_steps; ++t) {
    for (std::int64_t o = 0; o < p.num_output; ++o) {
      Acc acc = params.template Bias<Acc>(o, f);
      acc += DotOne(math, params.weights + o * in_n, in0.raw,
                    static_cast<std::size_t>(in_n));
      acc += DotOne(math, params.recurrent + o * p.num_output, h, n_out);
      math.Writeback(&next[static_cast<std::size_t>(o)], &acc, 1, fmt_);
    }
    if (act != nullptr) act->EvalRaw({next, n_out}, next);
    std::swap(h, next);
  }
  std::memcpy(out.raw, h, n_out * sizeof(std::int32_t));
}

template <typename Math, typename W>
void FunctionalSimulator::RunLstm(const Math& math, const Params<W>& params,
                                  const IrLayer& layer, const RawTensor& in0,
                                  RawTensor& out) const {
  using Acc = typename Math::Acc;
  const LstmParams& p = *layer.def.lstm;
  const int f = fmt_.frac_bits();
  const std::int64_t in_n = in0.shape.NumElements();
  const std::int64_t h = p.num_output;
  const std::size_t n_h = static_cast<std::size_t>(h);
  const ApproxLut& sig = LutFor(LutFunction::kSigmoid);
  const ApproxLut& tanh_lut = LutFor(LutFunction::kTanh);
  std::int32_t* hidden = arena_.AllocZeroed<std::int32_t>(n_h);
  std::int32_t* cell = arena_.AllocZeroed<std::int32_t>(n_h);
  std::int32_t* gates = arena_.AllocZeroed<std::int32_t>(4 * n_h);
  for (std::int64_t t = 0; t < p.time_steps; ++t) {
    for (std::int64_t g = 0; g < 4 * h; ++g) {
      Acc acc = params.template Bias<Acc>(g, f);
      acc += DotOne(math, params.weights + g * in_n, in0.raw,
                    static_cast<std::size_t>(in_n));
      acc += DotOne(math, params.recurrent + g * h, hidden, n_h);
      math.Writeback(&gates[static_cast<std::size_t>(g)], &acc, 1, fmt_);
    }
    // Gates i, f and o through the sigmoid LUT, the candidate through
    // tanh, in place.
    std::int32_t* gi = gates;
    std::int32_t* gf = gates + n_h;
    std::int32_t* gc = gates + 2 * n_h;
    std::int32_t* go = gates + 3 * n_h;
    sig.EvalRaw({gi, 2 * n_h}, gi);
    tanh_lut.EvalRaw({gc, n_h}, gc);
    sig.EvalRaw({go, n_h}, go);
    // The elementwise gate combination is a chain of saturating Mul/Add
    // in a fixed order — kept scalar on purpose.
    for (std::size_t j = 0; j < n_h; ++j)
      cell[j] = static_cast<std::int32_t>(
          fmt_.Add(fmt_.Mul(gf[j], cell[j]), fmt_.Mul(gi[j], gc[j])));
    tanh_lut.EvalRaw({cell, n_h}, hidden);
    for (std::size_t j = 0; j < n_h; ++j)
      hidden[j] = static_cast<std::int32_t>(fmt_.Mul(go[j], hidden[j]));
  }
  std::memcpy(out.raw, hidden, n_h * sizeof(std::int32_t));
}

// ---------------------------------------------------------------------
// Non-MAC layers
// ---------------------------------------------------------------------

void FunctionalSimulator::RunPooling(const IrLayer& layer,
                                     const RawTensor& in0,
                                     RawTensor& out) const {
  const sim::KernelOps& ops = sim::ActiveKernels();
  const PoolingParams& p = *layer.def.pool;
  const std::int64_t window = p.kernel_size * p.kernel_size;
  const bool pow2_window = IsPow2(window);
  const int shift =
      pow2_window ? static_cast<int>(std::llround(
                        std::log2(static_cast<double>(window))))
                  : 0;
  const std::int64_t recip_raw =
      pow2_window ? 0 : fmt_.Quantize(1.0 / static_cast<double>(window));
  const std::int64_t in_h = in0.shape.height;
  const std::int64_t in_w = in0.shape.width;
  const std::int64_t out_h = out.shape.height;
  const std::int64_t out_w = out.shape.width;
  const std::int32_t raw_min = static_cast<std::int32_t>(fmt_.raw_min());
  for (std::int64_t c = 0; c < out.shape.channels; ++c) {
    const std::int32_t* in_plane = in0.raw + c * in_h * in_w;
    std::int32_t* out_plane = out.raw + c * out_h * out_w;
    for (std::int64_t y = 0; y < out_h; ++y) {
      for (std::int64_t x = 0; x < out_w; ++x) {
        const std::int64_t y0 =
            std::max<std::int64_t>(y * p.stride - p.pad, 0);
        const std::int64_t x0 =
            std::max<std::int64_t>(x * p.stride - p.pad, 0);
        const std::int64_t y1 =
            std::min(y * p.stride - p.pad + p.kernel_size, in_h);
        const std::int64_t x1 =
            std::min(x * p.stride - p.pad + p.kernel_size, in_w);
        if (p.method == PoolMethod::kMax) {
          std::int32_t best = raw_min;
          for (std::int64_t iy = y0; iy < y1; ++iy)
            best = ops.max_value(in_plane + iy * in_w + x0,
                                 static_cast<std::size_t>(x1 - x0), best);
          out_plane[y * out_w + x] = best;
        } else {
          // Window sums of raw values always fit int64.
          std::int64_t sum = 0;
          for (std::int64_t iy = y0; iy < y1; ++iy)
            for (std::int64_t ix = x0; ix < x1; ++ix)
              sum += in_plane[iy * in_w + ix];
          // Average via the connection box's shifting latch when the
          // window is a power of two; otherwise multiply by the
          // quantised reciprocal.
          out_plane[y * out_w + x] = static_cast<std::int32_t>(
              pow2_window ? fmt_.Saturate(sum >> shift)
                          : fmt_.Mul(fmt_.Saturate(sum), recip_raw));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

template <typename W>
void FunctionalSimulator::RunMacLayer(const IrLayer& layer,
                                      const RawTensor* in0, RawTensor* out,
                                      std::size_t batch) const {
  const Params<W> params = ParamsOf<W>(layer);
  const bool winograd =
      layer.kind() == LayerKind::kConvolution &&
      sim::WinogradRoute(layer.def.conv->kernel_size, layer.def.conv->stride,
                         in0[0].shape.channels / layer.def.conv->group,
                         8 * elem_bytes_, fmt_.total_bits());
  const auto run = [&](const auto& math) {
    if (layer.kind() == LayerKind::kInnerProduct)
      return RunInnerProduct(math, params, layer, in0, out, batch);
    // Scratch is recycled before the next image's, or on the Winograd
    // route before the next kWinogradBatch images', so it stays bounded
    // whatever the batch size.
    const std::size_t step = winograd ? kWinogradBatch : 1;
    const sim::SimArena::Mark scratch = arena_.mark();
    for (std::size_t b = 0; b < batch; b += step) {
      if (winograd)
        RunWinograd(math, params, layer, in0 + b, out + b,
                    std::min(step, batch - b));
      else
        RunMacImage(math, params, layer, in0[b], out[b]);
      arena_.Rewind(scratch);
    }
  };
  narrow_ ? run(NarrowMath{sim::ActiveKernels()}) : run(WideMath{});
}

template <typename Math, typename W>
void FunctionalSimulator::RunMacImage(const Math& math,
                                      const Params<W>& params,
                                      const IrLayer& layer,
                                      const RawTensor& in0,
                                      RawTensor& out) const {
  switch (layer.kind()) {
    case LayerKind::kConvolution:
      return RunConv(math, params, layer, in0, out);
    case LayerKind::kRecurrent:
      return RunRecurrent(math, params, layer, in0, out);
    case LayerKind::kLstm:
      return RunLstm(math, params, layer, in0, out);
    default:
      break;
  }
  // CMAC: the per-output sum over active cells is a chain of
  // SATURATING adds in cell order — order-sensitive, kept scalar.
  DB_CHECK(layer.kind() == LayerKind::kAssociative);
  const AssociativeParams& p = *layer.def.associative;
  std::vector<float> x;
  x.reserve(in0.n);
  for (std::size_t i = 0; i < in0.n; ++i)
    x.push_back(static_cast<float>(fmt_.Dequantize(in0.raw[i])));
  const std::vector<std::int64_t> cells = CmacActiveCells(x, p);
  for (std::int64_t o = 0; o < p.num_output; ++o) {
    std::int64_t acc = 0;
    for (std::int64_t cell : cells)
      acc = fmt_.Add(acc, params.weights[o * p.num_cells + cell]);
    out.raw[static_cast<std::size_t>(o)] = static_cast<std::int32_t>(acc);
  }
}

void FunctionalSimulator::RunLayer(const IrLayer& layer, RawTensor* by_id,
                                   std::size_t batch) const {
  const auto at = [&](std::int64_t id, std::size_t b) -> RawTensor& {
    return by_id[static_cast<std::size_t>(id) * batch + b];
  };
  RawTensor* out = &at(layer.id, 0);
  const std::size_t num_ins = layer.input_ids.size();
  DB_CHECK(num_ins >= 1);
  const sim::SimArena::Mark scratch = arena_.mark();
  if (IsMacLayer(layer.kind())) {
    const RawTensor* in0 = &at(layer.input_ids.front(), 0);
    elem_bytes_ == 2 ? RunMacLayer<std::int16_t>(layer, in0, out, batch)
                     : RunMacLayer<std::int32_t>(layer, in0, out, batch);
  } else {
    const RawTensor** ins = arena_.Alloc<const RawTensor*>(num_ins);
    const sim::SimArena::Mark image_scratch = arena_.mark();
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < num_ins; ++i)
        ins[i] = &at(layer.input_ids[i], b);
      RunImageLayer(layer, ins, num_ins, out[b]);
      arena_.Rewind(image_scratch);
    }
  }
  arena_.Rewind(scratch);
}

void FunctionalSimulator::RunImageLayer(const IrLayer& layer,
                                        const RawTensor* const* ins,
                                        std::size_t num_ins,
                                        RawTensor& out) const {
  const RawTensor& in0 = *ins[0];
  const sim::KernelOps& ops = sim::ActiveKernels();
  const NarrowMath narrow{ops};
  const WideMath wide;

  switch (layer.kind()) {
    case LayerKind::kPooling:
      RunPooling(layer, in0, out);
      break;
    case LayerKind::kRelu:
      ops.relu(out.raw, in0.raw, in0.n);
      break;
    case LayerKind::kSigmoid:
      LutFor(LutFunction::kSigmoid).EvalRaw({in0.raw, in0.n}, out.raw);
      break;
    case LayerKind::kTanh:
      LutFor(LutFunction::kTanh).EvalRaw({in0.raw, in0.n}, out.raw);
      break;
    case LayerKind::kLrn:
      narrow_ ? RunLrn(narrow, layer, in0, out)
              : RunLrn(wide, layer, in0, out);
      break;
    case LayerKind::kSoftmax: {
      const ApproxLut& exp_lut = LutFor(LutFunction::kExp);
      const ApproxLut& recip_lut = LutFor(LutFunction::kRecip);
      const std::int32_t max_raw =
          ops.max_value(in0.raw, in0.n,
                        static_cast<std::int32_t>(fmt_.raw_min()));
      for (std::size_t i = 0; i < in0.n; ++i)
        out.raw[i] = static_cast<std::int32_t>(
            fmt_.Saturate(std::int64_t{in0.raw[i]} - max_raw));
      exp_lut.EvalRaw({out.raw, out.n}, out.raw);
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < out.n; ++i) sum += out.raw[i];
      const std::int64_t recip = recip_lut.EvalRaw(
          static_cast<std::int32_t>(fmt_.Saturate(sum)));
      for (std::size_t i = 0; i < out.n; ++i)
        out.raw[i] =
            static_cast<std::int32_t>(fmt_.Mul(out.raw[i], recip));
      break;
    }
    case LayerKind::kDropout:
      // Inference: inverted dropout is identity.
      std::memcpy(out.raw, in0.raw, in0.n * sizeof(std::int32_t));
      break;
    case LayerKind::kConcat: {
      std::size_t pos = 0;
      for (std::size_t i = 0; i < num_ins; ++i) {
        std::memcpy(out.raw + pos, ins[i]->raw,
                    ins[i]->n * sizeof(std::int32_t));
        pos += ins[i]->n;
      }
      DB_CHECK(pos == out.n);
      break;
    }
    case LayerKind::kClassifier: {
      const ClassifierParams& p = *layer.def.classifier;
      std::fill(out.raw, out.raw + out.n, 0);
      std::vector<std::int64_t> order(in0.n);
      for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<std::int64_t>(i);
      const std::int64_t k = std::min<std::int64_t>(
          p.top_k, static_cast<std::int64_t>(in0.n));
      std::partial_sort(
          order.begin(), order.begin() + k, order.end(),
          [&](std::int64_t a, std::int64_t b) {
            const std::int32_t va = in0.raw[static_cast<std::size_t>(a)];
            const std::int32_t vb = in0.raw[static_cast<std::size_t>(b)];
            if (va != vb) return va > vb;
            return a < b;
          });
      for (std::int64_t i = 0; i < k; ++i)
        out.raw[static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(fmt_.Quantize(static_cast<double>(
                order[static_cast<std::size_t>(i)])));
      break;
    }
    case LayerKind::kInput:
    case LayerKind::kConvolution:
    case LayerKind::kInnerProduct:
    case LayerKind::kRecurrent:
    case LayerKind::kLstm:
    case LayerKind::kAssociative:
      DB_THROW(LayerKindName(layer.kind()) << " layer reached RunImageLayer");
  }
}

// ---------------------------------------------------------------------
// Graph execution
// ---------------------------------------------------------------------

void FunctionalSimulator::QuantizeInput(const Tensor& t,
                                        RawTensor& out) const {
  const std::vector<float>& v = t.storage();
  DB_CHECK(v.size() == out.n);
  for (std::size_t i = 0; i < out.n; ++i)
    out.raw[i] = static_cast<std::int32_t>(
        fmt_.Quantize(static_cast<double>(v[i])));
}

FunctionalSimulator::Buffer FunctionalSimulator::TakeBuffer(
    std::size_t n) const {
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i)
    if (free_[i].size >= n &&
        (best == free_.size() || free_[i].size < free_[best].size))
      best = i;
  if (best == free_.size()) return {arena_.Alloc<std::int32_t>(n), n};
  const Buffer taken = free_[best];
  free_[best] = free_.back();
  free_.pop_back();
  return taken;
}

Tensor FunctionalSimulator::Dequantize(const RawTensor& rt) const {
  Tensor t(Shape{rt.shape.channels, rt.shape.height, rt.shape.width});
  for (std::int64_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(
        fmt_.Dequantize(rt.raw[static_cast<std::size_t>(i)]));
  return t;
}

const FunctionalSimulator::RawTensor* FunctionalSimulator::RunGraph(
    const std::map<std::string, std::span<const Tensor* const>>& inputs,
    std::size_t batch, bool keep_all) const {
  DB_CHECK(batch >= 1);
  arena_.Reset();
  free_.clear();
  const std::size_t n_layers = net_.layers().size();
  RawTensor* by_id = arena_.AllocZeroed<RawTensor>(n_layers * batch);
  // Each layer's outputs for the whole batch share one buffer, which
  // goes back to free_ after the layer's last reader has run.
  Buffer* held = arena_.AllocZeroed<Buffer>(n_layers);
  const auto release = [&](int id) {
    Buffer& buffer = held[static_cast<std::size_t>(id)];
    if (buffer.data != nullptr) free_.push_back(buffer);
    buffer = {};
  };
  for (const IrLayer& layer : net_.layers()) {
    const std::size_t id = static_cast<std::size_t>(layer.id);
    const std::size_t n =
        static_cast<std::size_t>(layer.output_shape.NumElements());
    held[id] = TakeBuffer(n * batch);
    RawTensor* out = by_id + id * batch;
    for (std::size_t b = 0; b < batch; ++b)
      out[b] = {layer.output_shape, held[id].data + b * n, n};
    if (layer.kind() == LayerKind::kInput) {
      const auto it = inputs.find(layer.name());
      if (it == inputs.end())
        DB_THROW("missing input '" << layer.name() << "'");
      DB_CHECK(it->second.size() == batch);
      for (std::size_t b = 0; b < batch; ++b)
        QuantizeInput(*it->second[b], out[b]);
    } else {
      RunLayer(layer, by_id, batch);
    }
    if (keep_all) continue;
    for (const int in : layer.input_ids)
      if (last_use_[static_cast<std::size_t>(in)] == layer.id) release(in);
    if (last_use_[id] == layer.id) release(layer.id);
  }
  return by_id;
}

std::map<std::string, Tensor> FunctionalSimulator::Run(
    const std::map<std::string, Tensor>& inputs) const {
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(inputs.size());
  std::map<std::string, std::span<const Tensor* const>> in_spans;
  for (const auto& [name, t] : inputs) {
    ptrs.push_back(&t);
    in_spans.emplace(name, std::span<const Tensor* const>(&ptrs.back(), 1));
  }
  const RawTensor* by_id = RunGraph(in_spans, 1, false);
  const IrLayer& out_layer = net_.OutputLayer();
  std::map<std::string, Tensor> result;
  result[out_layer.name()] =
      Dequantize(by_id[static_cast<std::size_t>(out_layer.id)]);
  return result;
}

std::vector<Tensor> FunctionalSimulator::RunBatch(
    std::span<const Tensor* const> inputs) const {
  DB_CHECK_MSG(net_.input_ids().size() == 1,
               "RunBatch requires a single-input network");
  if (inputs.empty()) return {};
  const IrLayer& in_layer = net_.layer(net_.input_ids().front());
  const RawTensor* by_id =
      RunGraph({{in_layer.name(), inputs}}, inputs.size(), false);
  const RawTensor* outs =
      by_id + static_cast<std::size_t>(net_.OutputLayer().id) * inputs.size();
  std::vector<Tensor> result;
  result.reserve(inputs.size());
  for (std::size_t b = 0; b < inputs.size(); ++b)
    result.push_back(Dequantize(outs[b]));
  return result;
}

std::map<std::string, Tensor> FunctionalSimulator::RunAll(
    const Tensor& input) const {
  DB_CHECK_MSG(net_.input_ids().size() == 1,
               "RunAll requires a single-input network");
  const IrLayer& in_layer = net_.layer(net_.input_ids().front());
  const Tensor* const in = &input;
  const RawTensor* by_id = RunGraph({{in_layer.name(), {&in, 1}}}, 1, true);
  std::map<std::string, Tensor> acts;
  for (const IrLayer& layer : net_.layers())
    acts[layer.name()] =
        Dequantize(by_id[static_cast<std::size_t>(layer.id)]);
  return acts;
}

Tensor FunctionalSimulator::Run(const Tensor& input) const {
  const Tensor* const in = &input;
  return std::move(RunBatch({&in, 1}).front());
}

}  // namespace db
