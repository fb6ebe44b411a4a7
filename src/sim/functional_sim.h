// Bit-accurate functional simulation of a generated accelerator.
//
// Executes a network's forward propagation with exactly the arithmetic
// the generated datapath performs: operands quantised to the design's
// fixed-point format, full-precision MAC accumulation with saturating
// round-half-away-from-zero writeback, Approx-LUT activation/softmax/LRN
// evaluation (including the super-linear interpolation), and shift-based
// average pooling.  Fig. 10 compares this simulator's outputs against
// the float reference executor.
//
// Weights: the simulator reads its parameters in place from a DRAM
// MemoryImage, the way the accelerator reads DDR3 (paper §4.1) — there
// is no decoded copy.  2-byte formats (every zoo design) read through an
// int16 view of the image and 4-byte formats through an int32 view.  1-
// and 3-byte formats have no native word; each pass widens their
// parameters from the image into its scratch arena.  Either way a bit
// flipped in a weight region reaches the next pass.
//
// Batch-major execution: a pass runs a batch of B images, and each
// layer runs over all B images before the next layer starts.  Fully
// connected layers share each weight row among up to sim::kDotBatch
// images, so a batch reads fc weights once per kDotBatch images rather
// than once per image.  Convolutions that sim::WinogradRoute admits (3x3,
// stride 1, at least 56 input channels per group, provably exact) run
// up to four images at a time, as below; every other layer runs image
// by image.  Each
// image's outputs are bit-identical to a pass of that image alone.
// Run() is the B = 1 pass.
//
// Convolution: every layer outside the Winograd route runs the direct
// register tile (sim::KernelOps::conv_tile) over its zero-padded,
// stride-phased input, image by image (RunConv).  A Winograd layer runs
// F(2x2, 3x3) with G scaled by 2 (RunWinograd): per group, the integer
// input transform of every 2x2 output tile of up to four images; per
// pass of up to 32 output channels, the integer weight transform from
// the image words; the 16 per-position GEMMs on the same conv_tile, with
// taps = input channels and those images' tiles as pixels; then the output
// transform, which yields exactly 4x the direct sum, the bias and the
// shared writeback.  Outputs equal the direct tile's bit for bit.
//
// Hot-path layout: layer state is structure-of-arrays — int32 raw
// activations in a per-simulator arena, int64 accumulators — and the
// dense MAC/activation sweeps run on the sim/kernels.h backend (the
// widest of AVX-512 and AVX2 the host has, bit-identical scalar
// otherwise).  LRN works on
// whole channel planes: a sliding window of exact sums of squares, one
// writeback and one span LUT evaluation per plane.  Formats too wide
// for provably-overflow-free int64 accumulation fall back to an
// __int128 scalar path with identical rounding.
//
// Memory: a pass allocates from one scratch arena.  Each layer's
// activations for the whole batch take one buffer, recycled once the
// layer's last reader has run (RunAll keeps them all), and each image's
// layer scratch is recycled before the next image's.  So the arena
// grows with the batch — B times the live activations — up to the
// largest batch run so far, and is then reused pass after pass.  A
// Winograd layer's scratch spans the up to four images it runs at a
// time: 16 doubles per input channel of a group per output tile (6.5 MB
// for Alexnet's conv3 at four images), plus the transformed weights and
// GEMM sums of one pass, whatever the batch size.
//
// Threading contract: a FunctionalSimulator owns one scratch arena, so
// concurrent Run()/RunBatch() calls on the SAME instance are not
// supported.  Every serving replica owns a private SystemContext (and
// therefore a private simulator) driven by one executor thread, which
// satisfies this by construction.
#pragma once

#include <array>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/generator.h"
#include "core/memory_image.h"
#include "nn/weights.h"
#include "sim/kernels.h"

namespace db {

/// Functional simulator bound to one generated design.
class FunctionalSimulator {
 public:
  /// Reads the parameters in place from the weight regions of `image`,
  /// which must outlive the simulator and keep its byte buffer (moving
  /// the MemoryImage is fine; see memory_image.h).
  FunctionalSimulator(const Network& net, const AcceleratorDesign& design,
                      const MemoryImage& image);

  /// Quantises `weights` into an image the simulator owns (the ARM
  /// host's preprocessing step in the paper's flow), then reads it
  /// exactly as above.
  FunctionalSimulator(const Network& net, const AcceleratorDesign& design,
                      const WeightStore& weights);

  /// Run one forward propagation; input and output are float tensors at
  /// the network boundary (the host's view), everything in between is
  /// fixed-point.
  Tensor Run(const Tensor& input) const;

  /// One batch-major pass over `inputs` (a single-input network): output
  /// b is bit-identical to Run(*inputs[b]).
  std::vector<Tensor> RunBatch(std::span<const Tensor* const> inputs) const;

  /// Multi-input variant keyed by input-layer name.
  std::map<std::string, Tensor> Run(
      const std::map<std::string, Tensor>& inputs) const;

  /// Run and return *every* layer's activation (dequantised), keyed by
  /// layer name — the probe interface used to compare fixed-point
  /// fidelity at interior points (e.g. pre-softmax logits, where
  /// magnitudes are representable).
  std::map<std::string, Tensor> RunAll(const Tensor& input) const;

  /// The Approx LUT generated for `fn` (throws if the design has none).
  const ApproxLut& LutFor(LutFunction fn) const;

 private:
  /// One layer's raw activations: an arena-backed int32 span.
  struct RawTensor {
    BlobShape shape;
    std::int32_t* raw = nullptr;
    std::size_t n = 0;
  };

  /// One layer's parameters as typed views into the parameter words
  /// (bias/recurrent null when the layer has none).
  template <typename W>
  struct Params {
    const W* weights = nullptr;
    const W* bias = nullptr;
    const W* recurrent = nullptr;

    /// Bias `i` aligned to the accumulator's 2f fractional bits.
    template <typename Acc>
    Acc Bias(std::int64_t i, int f) const {
      return bias == nullptr ? Acc{0} : static_cast<Acc>(bias[i]) << f;
    }
  };

  /// Both constructors' tail: parameter views, LUTs, accumulation path.
  void Bind(const MemoryImage& image);
  template <typename W>
  Params<W> ParamsOf(const IrLayer& layer) const;

  /// Run `layer` over every image of the pass, into its outputs in
  /// `by_id` (see RunGraph).
  void RunLayer(const IrLayer& layer, RawTensor* by_id,
                std::size_t batch) const;
  /// One image through a layer without parameters.
  void RunImageLayer(const IrLayer& layer, const RawTensor* const* ins,
                     std::size_t num_ins, RawTensor& out) const;
  /// The parameterised layers, on weight words of type W: `in0` and
  /// `out` each hold `batch` images.
  template <typename W>
  void RunMacLayer(const IrLayer& layer, const RawTensor* in0,
                   RawTensor* out, std::size_t batch) const;
  /// One image through a parameterised layer other than FC.
  template <typename Math, typename W>
  void RunMacImage(const Math& math, const Params<W>& params,
                   const IrLayer& layer, const RawTensor& in0,
                   RawTensor& out) const;
  /// Execute all layers over `batch` images; returns the arena-backed
  /// per-layer tensors, image b of layer id at [id * batch + b].
  /// `inputs` keys input-layer names, each with `batch` tensors.  Unless
  /// `keep_all`, a layer's activations are recycled once its last reader
  /// has run, and only the output layer's stay valid.
  const RawTensor* RunGraph(
      const std::map<std::string, std::span<const Tensor* const>>& inputs,
      std::size_t batch, bool keep_all) const;
  void QuantizeInput(const Tensor& t, RawTensor& out) const;
  /// An activation buffer of one layer's whole batch.
  struct Buffer {
    std::int32_t* data = nullptr;
    std::size_t size = 0;
  };
  /// `n` int32s: the smallest recycled buffer that holds them, else new
  /// arena memory.
  Buffer TakeBuffer(std::size_t n) const;
  Tensor Dequantize(const RawTensor& t) const;

  template <typename Math, typename W>
  void RunConv(const Math& math, const Params<W>& params,
               const IrLayer& layer, const RawTensor& in0,
               RawTensor& out) const;
  /// A convolution sim::WinogradRoute admits, over `batch` images (at
  /// most four), as exact Winograd F(2x2, 3x3) with its GEMM on
  /// conv_tile.
  template <typename Math, typename W>
  void RunWinograd(const Math& math, const Params<W>& params,
                   const IrLayer& layer, const RawTensor* in0,
                   RawTensor* out, std::size_t batch) const;
  template <typename Math, typename W>
  void RunInnerProduct(const Math& math, const Params<W>& params,
                       const IrLayer& layer, const RawTensor* in0,
                       RawTensor* out, std::size_t batch) const;
  template <typename Math>
  void RunLrn(const Math& math, const IrLayer& layer, const RawTensor& in0,
              RawTensor& out) const;
  template <typename Math, typename W>
  void RunRecurrent(const Math& math, const Params<W>& params,
                    const IrLayer& layer, const RawTensor& in0,
                    RawTensor& out) const;
  template <typename Math, typename W>
  void RunLstm(const Math& math, const Params<W>& params,
               const IrLayer& layer, const RawTensor& in0,
               RawTensor& out) const;
  void RunPooling(const IrLayer& layer, const RawTensor& in0,
                  RawTensor& out) const;

  const Network& net_;
  const AcceleratorDesign& design_;
  FixedFormat fmt_;
  MemoryImage owned_image_{0};  // built by the WeightStore constructor
  /// The image bytes the parameters are read from, and their element
  /// width: 2-byte elements are read as int16 words in place, 4-byte ones
  /// as int32, and 1- and 3-byte ones are widened to int32 on every run.
  const std::uint8_t* bytes_ = nullptr;
  int elem_bytes_ = 2;
  /// A parameter tensor's first element index in the image and its
  /// element count (0 when absent).
  struct Slot {
    std::int64_t index = 0;
    std::int64_t count = 0;
  };
  /// Per layer id: the weight matrix, bias and recurrent matrix.
  std::vector<std::array<Slot, 3>> slots_;
  std::vector<ApproxLut> luts_;
  /// int64 accumulation provably never overflows for this design
  /// (format width x deepest fan-in) — the kernel fast path.
  bool narrow_ = true;
  /// Per layer id: the id of the last layer that reads its output (its
  /// own id when none does; INT_MAX for the network output).
  std::vector<int> last_use_;
  /// Per-run scratch, recycled across invocations (see class comment
  /// for the single-thread contract), and the activation buffers of the
  /// current pass that are free for reuse.
  mutable sim::SimArena arena_;
  mutable std::vector<Buffer> free_;
};

}  // namespace db
