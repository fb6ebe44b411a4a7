// Tests for the bit-accurate functional simulator: fixed-point execution
// must track the float reference within quantisation tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/generator.h"
#include "core/memory_image.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/functional_sim.h"

namespace db {
namespace {

struct SimCase {
  ZooModel model;
  double tolerance;  // max |float - fixed| on the output
};

class FunctionalSimSweep : public ::testing::TestWithParam<SimCase> {};

TEST_P(FunctionalSimSweep, TracksFloatReference) {
  const Network net = BuildZooModel(GetParam().model);
  Rng rng(21);
  // Small weights keep intermediate values inside the Q7.8 range so the
  // comparison isolates rounding (not saturation).
  WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  Executor exec(net, weights);
  FunctionalSimulator sim(net, design, weights);

  const BlobShape in_shape =
      net.layer(net.input_ids().front()).output_shape;
  for (int trial = 0; trial < 3; ++trial) {
    Tensor input(Shape{in_shape.channels, in_shape.height,
                       in_shape.width});
    Rng in_rng(static_cast<std::uint64_t>(trial) + 100);
    input.FillUniform(in_rng, 0.0f, 1.0f);
    // Pre-round the input to the datapath format so both paths see
    // identical values (the CMAC association hash is discontinuous in
    // its input, so sub-LSB input differences are not rounding noise).
    for (std::int64_t i = 0; i < input.size(); ++i)
      input[i] = static_cast<float>(
          design.config.format.RoundTrip(input[i]));
    const Tensor ref = exec.ForwardOutput(input);
    const Tensor fixed = sim.Run(input);
    ASSERT_EQ(ref.shape(), fixed.shape());
    EXPECT_LT(MaxAbsDiff(ref, fixed), GetParam().tolerance)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallModels, FunctionalSimSweep,
    ::testing::Values(SimCase{ZooModel::kAnn0Fft, 0.05},
                      SimCase{ZooModel::kAnn1Jpeg, 0.08},
                      SimCase{ZooModel::kAnn2Kmeans, 0.05},
                      SimCase{ZooModel::kMnist, 0.08},
                      SimCase{ZooModel::kCifar, 0.10},
                      SimCase{ZooModel::kCmac, 0.05}),
    [](const auto& info) {
      std::string name = ZooModelName(info.param.model);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(FunctionalSim, ClassificationAgreesWithFloat) {
  // On a network whose logits are well separated (unit-scale weights),
  // quantisation must not flip the argmax for the vast majority of
  // inputs.  (A *random-weight* deep CNN has near-degenerate logits where
  // argmax is meaningless; trained-model agreement is covered by the
  // integration tests.)
  const Network net = Network::Build(ParseNetworkDef(
      "input: \"data\"\ninput_dim: 1\ninput_dim: 16\ninput_dim: 1\n"
      "input_dim: 1\n"
      "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"data\" "
      "top: \"fc\" param { num_output: 4 } }\n"
      "layers { name: \"sm\" type: SOFTMAX bottom: \"fc\" top: \"sm\" "
      "}\n"));
  Rng rng(31);
  WeightStore weights = WeightStore::CreateFor(net);
  weights.at("fc").weights.FillGaussian(rng, 0.0f, 1.0f);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  Executor exec(net, weights);
  FunctionalSimulator sim(net, design, weights);

  int agree = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    Tensor input(Shape{16, 1, 1});
    Rng in_rng(static_cast<std::uint64_t>(t) + 500);
    input.FillUniform(in_rng, 0.0f, 1.0f);
    if (exec.ForwardOutput(input).ArgMax() == sim.Run(input).ArgMax())
      ++agree;
  }
  EXPECT_GE(agree, 8);
}

TEST(FunctionalSim, ReluClampsNegative) {
  const Network net = Network::Build(ParseNetworkDef(
      "input: \"data\"\ninput_dim: 1\ninput_dim: 4\ninput_dim: 1\n"
      "input_dim: 1\n"
      "layers { name: \"r\" type: RELU bottom: \"data\" top: \"r\" }\n"));
  WeightStore weights = WeightStore::CreateFor(net);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  const Tensor out =
      sim.Run(Tensor(Shape{4, 1, 1}, {-1.0f, -0.5f, 0.5f, 1.0f}));
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_NEAR(out[2], 0.5f, 0.01);
}

TEST(FunctionalSim, SaturatesInsteadOfWrapping) {
  // A weight of 100 on an input of 100 overflows Q7.8: output must pin at
  // the format maximum, not wrap negative.
  const Network net = Network::Build(ParseNetworkDef(
      "input: \"data\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 1\n"
      "input_dim: 1\n"
      "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"data\" "
      "top: \"fc\" param { num_output: 1 } }\n"));
  WeightStore weights = WeightStore::CreateFor(net);
  weights.at("fc").weights[0] = 100.0f;
  weights.at("fc").bias[0] = 0.0f;
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  const Tensor out = sim.Run(Tensor(Shape{1, 1, 1}, {100.0f}));
  EXPECT_NEAR(out[0], design.config.format.value_max(), 0.01);
}

TEST(FunctionalSim, SoftmaxOutputsNormalised) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Rng rng(41);
  WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  const Tensor out = sim.Run(input);
  double sum = 0.0;
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], -0.01f);
    sum += out[i];
  }
  EXPECT_NEAR(sum, 1.0, 0.2);  // fixed-point softmax is approximate
}

TEST(FunctionalSim, LutForUnusedFunctionThrows) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);  // tanh only
  Rng rng(1);
  WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  EXPECT_NO_THROW(sim.LutFor(LutFunction::kTanh));
  EXPECT_THROW(sim.LutFor(LutFunction::kExp), Error);
}

TEST(FunctionalSim, HopfieldProducesActivationsInRange) {
  const Network net = BuildZooModel(ZooModel::kHopfield);
  WeightStore weights = WeightStore::CreateFor(net);
  // Mild symmetric couplings.
  Rng rng(9);
  weights.at("settle").recurrent.FillUniform(rng, -0.2f, 0.2f);
  weights.at("settle").weights.FillUniform(rng, -0.2f, 0.2f);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  Tensor input(Shape{25, 1, 1});
  input.FillUniform(rng, -0.5f, 0.5f);
  const Tensor out = sim.Run(input);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i], -0.01f);  // sigmoid range
    EXPECT_LE(out[i], 1.01f);
  }
}

TEST(FunctionalSim, MultiInputInterfaceRejectsMissing) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  WeightStore weights = WeightStore::CreateFor(net);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  FunctionalSimulator sim(net, design, weights);
  EXPECT_THROW(sim.Run(std::map<std::string, Tensor>{}), Error);
}

// ------------------------------------------- conv vs exact reference

/// One randomised single-convolution network.
struct ConvCase {
  int bits, frac;
  std::int64_t channels, height, width;
  std::int64_t num_output, k, stride, pad, group;
  bool extremes;  // raws drawn from the format's edges, not its middle
};

/// `max_group_in` caps the input channels per group.
ConvCase RandomConvCase(Rng& rng, int bits, std::uint64_t max_group_in) {
  ConvCase c{};
  c.bits = bits;
  c.frac = bits / 4 + static_cast<int>(rng.UniformInt(
                          static_cast<std::uint64_t>(bits / 4 + 1)));
  c.k = 1 + static_cast<std::int64_t>(rng.UniformInt(11));
  c.stride = 1 + static_cast<std::int64_t>(rng.UniformInt(4));
  c.pad = static_cast<std::int64_t>(
      rng.UniformInt(static_cast<std::uint64_t>(c.k)));
  c.group = 1 + static_cast<std::int64_t>(rng.UniformInt(3));
  c.channels = c.group * (1 + static_cast<std::int64_t>(
                                  rng.UniformInt(max_group_in)));
  c.num_output = c.group * (1 + static_cast<std::int64_t>(rng.UniformInt(6)));
  // The unpadded input may be smaller than the kernel; only the padded
  // extent has to cover it.
  const std::int64_t min_side = std::max<std::int64_t>(1, c.k - 2 * c.pad);
  c.height = min_side + static_cast<std::int64_t>(rng.UniformInt(8));
  c.width = min_side + static_cast<std::int64_t>(
                           rng.UniformInt(static_cast<std::uint64_t>(
                               c.stride * 30 + c.k - 2 * c.pad - min_side)));
  c.extremes = rng.Bernoulli(0.3);
  return c;
}

std::string ConvScript(const ConvCase& c) {
  std::string s = "input: \"data\"\ninput_dim: 1\n";
  for (const std::int64_t d : {c.channels, c.height, c.width})
    s += "input_dim: " + std::to_string(d) + "\n";
  s += "layers { name: \"conv\" type: CONVOLUTION bottom: \"data\" "
       "top: \"conv\" convolution_param { num_output: ";
  s += std::to_string(c.num_output) + " kernel_size: " +
       std::to_string(c.k) + " stride: " + std::to_string(c.stride) +
       " pad: " + std::to_string(c.pad) + " group: " +
       std::to_string(c.group) + " } }\n";
  return s;
}

/// A raw value of `fmt`: uniform over the range, or (extremes) one of
/// the saturation edges, zero, +-1 or a uniform draw.
std::int64_t RandomRaw(Rng& rng, const FixedFormat& fmt, bool extremes) {
  const auto uniform = [&] {
    return fmt.raw_min() +
           static_cast<std::int64_t>(rng.UniformInt(
               static_cast<std::uint64_t>(fmt.raw_max() - fmt.raw_min()) +
               1));
  };
  if (!extremes) return uniform();
  switch (rng.UniformInt(5)) {
    case 0: return fmt.raw_min();
    case 1: return fmt.raw_max();
    case 2: return 0;
    case 3: return rng.Bernoulli(0.5) ? 1 : -1;
    default: return uniform();
  }
}

/// A 3x3 stride-1 case: `group_in` input channels per group, pad `pad`,
/// up to 40 output channels per group (off the 8-wide tile and past one
/// 32-channel pass of the Winograd route), and outputs of 1 to 10 rows
/// and columns, odd and even.  A `deep` case (thousands of channels)
/// keeps one group, 1 to 4 output channels and inputs of two sizes, so
/// the exact reference stays quick.
ConvCase RandomThreeByThreeCase(Rng& rng, int bits, std::int64_t group_in,
                                std::int64_t pad, bool deep) {
  ConvCase c{};
  c.bits = bits;
  c.frac = bits / 4 + static_cast<int>(rng.UniformInt(
                          static_cast<std::uint64_t>(bits / 4 + 1)));
  c.k = 3;
  c.stride = 1;
  c.pad = pad;
  c.group = deep ? 1 : 1 + static_cast<std::int64_t>(rng.UniformInt(3));
  c.channels = c.group * group_in;
  c.num_output = c.group * (1 + static_cast<std::int64_t>(
                                    rng.UniformInt(deep ? 4 : 40)));
  const std::int64_t min_side = std::max<std::int64_t>(1, 3 - 2 * pad);
  const std::uint64_t sides = deep ? 2 : 8;
  c.height = min_side + static_cast<std::int64_t>(rng.UniformInt(sides));
  c.width = min_side + static_cast<std::int64_t>(rng.UniformInt(sides));
  c.extremes = rng.Bernoulli(0.3);
  return c;
}

/// The raw outputs `net`'s one convolution must produce on the input
/// raws `in_raw`, dequantised as the simulator's boundary view: a naive
/// __int128 seven-loop reference over the weight and bias words `image`
/// holds, with the bias aligned to 2f fractional bits, exact products,
/// the hardware rounder and saturation.
std::vector<float> ExactConv(const Network& net,
                             const AcceleratorDesign& design,
                             const MemoryImage& image,
                             const std::vector<__int128>& in_raw) {
  const IrLayer& layer = net.OutputLayer();
  const ConvolutionParams& p = *layer.def.conv;
  const BlobShape& is = net.layer(layer.input_ids.front()).output_shape;
  const BlobShape& os = layer.output_shape;
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  const WeightRegionLayout layout = LayoutWeightRegion(layer, design);
  const auto w_raw = [&](std::int64_t i) -> __int128 {
    return image.ReadElem(layout.weights_addr + i * elem_bytes, elem_bytes);
  };
  const auto b_raw = [&](std::int64_t i) -> __int128 {
    if (layout.counts.bias == 0) return 0;
    return image.ReadElem(layout.bias_addr + i * elem_bytes, elem_bytes);
  };
  const std::int64_t k = p.kernel_size;
  const std::int64_t group_in = is.channels / p.group;
  const std::int64_t group_out = os.channels / p.group;
  std::vector<float> want;
  for (std::int64_t oc = 0; oc < os.channels; ++oc)
    for (std::int64_t y = 0; y < os.height; ++y)
      for (std::int64_t x = 0; x < os.width; ++x) {
        __int128 acc = b_raw(oc) << fmt.frac_bits();
        for (std::int64_t g = 0; g < group_in; ++g)
          for (std::int64_t ky = 0; ky < k; ++ky)
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = y * p.stride - p.pad + ky;
              const std::int64_t ix = x * p.stride - p.pad + kx;
              if (iy < 0 || iy >= is.height || ix < 0 || ix >= is.width)
                continue;
              const std::int64_t ic = (oc / group_out) * group_in + g;
              acc += w_raw(((oc * group_in + g) * k + ky) * k + kx) *
                     in_raw[static_cast<std::size_t>(
                         (ic * is.height + iy) * is.width + ix)];
            }
        __int128 v = sim::RoundShiftHalfAway128(acc, fmt.frac_bits());
        v = std::clamp<__int128>(v, fmt.raw_min(), fmt.raw_max());
        // Exact (one float per raw) below 2^24 in magnitude.
        want.push_back(static_cast<float>(
            fmt.Dequantize(static_cast<std::int64_t>(v))));
      }
  return want;
}

/// Counts the outputs where `got` differs from `want`, reporting the
/// first five.
std::int64_t Mismatches(const std::vector<float>& got,
                        const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i] != want[i] && ++mismatches <= 5)
      ADD_FAILURE() << "output " << i << ": want " << want[i] << " got "
                    << got[i];
  return mismatches;
}

/// Every raw output of one convolution, under every kernel backend,
/// against ExactConv.  Covers strided AND padded kernels (no zoo model
/// has one), grouped channels, output channel counts off the 8-wide tile,
/// kernels wider than the unpadded input, widths on both sides of the
/// int64 accumulation guard, and layers on both sides of the double
/// tile's exactness bound.  Then 3x3 stride-1 layers, on both sides of
/// the Winograd route: pads 0 to 2, odd output sizes (half-valid edge
/// tiles), weight words at their edges (a flipped bit may set them)
/// against extreme activations at the route's bound, and batches of 1,
/// 4 and 5 through RunBatch as well as Run.
TEST(FunctionalSim, ConvMatchesExactReference) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  const std::vector<sim::KernelBackend> backends = sim::AvailableBackends();
  Rng rng(1512);
  int cases = 0;

  // One case over `batch` images, through Run when `batch` is 0; returns
  // the design's weight word width.  With `word_edges`, extreme cases
  // store weight words from the edges of the word's range rather than
  // the format's.
  const auto check = [&](const ConvCase& c, std::size_t batch,
                         bool word_edges) {
    const std::string script = ConvScript(c);
    SCOPED_TRACE(StrFormat("bits=%d frac=%d extremes=%d batch=%d\n", c.bits,
                           c.frac, c.extremes ? 1 : 0,
                           static_cast<int>(batch)) +
                 script);
    const Network net = Network::Build(ParseNetworkDef(script));
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = c.bits;
    constraint.frac_bits = c.frac;
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    const FixedFormat& fmt = design.config.format;
    const int elem_bytes = static_cast<int>(design.config.ElementBytes());

    // Weights: raw draws, stored through the float store the way the
    // host provisions them; the reference reads back what the image
    // holds.
    WeightStore weights = WeightStore::CreateFor(net);
    LayerParams& params = weights.at("conv");
    for (Tensor* t : {&params.weights, &params.bias})
      for (std::int64_t i = 0; i < t->size(); ++i)
        (*t)[i] = static_cast<float>(
            fmt.Dequantize(RandomRaw(rng, fmt, c.extremes)));
    MemoryImage image(design.memory_map.total_bytes());
    WriteWeights(image, net, design, weights);
    if (word_edges && c.extremes) {
      const WeightRegionLayout layout =
          LayoutWeightRegion(net.layer(net.OutputLayer().id), design);
      const std::int64_t word_max =
          (std::int64_t{1} << (8 * elem_bytes - 1)) - 1;
      for (std::int64_t i = 0; i < layout.counts.weights; ++i)
        if (rng.Bernoulli(0.5))
          image.WriteElem(layout.weights_addr + i * elem_bytes,
                          rng.Bernoulli(0.5) ? word_max : -word_max - 1,
                          elem_bytes);
    }

    std::vector<Tensor> inputs;
    std::vector<std::vector<float>> want;
    for (std::size_t b = 0; b < std::max<std::size_t>(batch, 1); ++b) {
      Tensor input(Shape{c.channels, c.height, c.width});
      std::vector<__int128> in_raw(static_cast<std::size_t>(input.size()));
      for (std::int64_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>(
            fmt.Dequantize(RandomRaw(rng, fmt, c.extremes)));
        in_raw[static_cast<std::size_t>(i)] =
            fmt.Quantize(static_cast<double>(input[i]));
      }
      inputs.push_back(std::move(input));
      want.push_back(ExactConv(net, design, image, in_raw));
    }
    std::vector<const Tensor*> ptrs;
    for (const Tensor& t : inputs) ptrs.push_back(&t);

    for (const sim::KernelBackend backend : backends) {
      SCOPED_TRACE(sim::KernelBackendName(backend));
      sim::SetKernelBackend(backend);
      const FunctionalSimulator sim(net, design, image);
      if (batch == 0) {
        EXPECT_EQ(Mismatches(sim.Run(inputs[0]).storage(), want[0]), 0);
        continue;
      }
      const std::vector<Tensor> outs = sim.RunBatch(ptrs);
      EXPECT_EQ(outs.size(), batch);
      for (std::size_t b = 0; b < std::min(outs.size(), batch); ++b)
        EXPECT_EQ(Mismatches(outs[b].storage(), want[b]), 0) << "image " << b;
    }
    return 8 * elem_bytes;
  };

  // Per width, the cases whose layer runs the double tile ([0]) and
  // the integer one ([1]).
  std::map<int, std::array<int, 2>> sides;
  // 24 bits leaves the double tile at 128 taps, 20-22 bits between 512
  // and 2048 taps: those three draw deeper inputs to reach both sides.
  const struct {
    int bits;
    std::uint64_t max_group_in;
  } widths[] = {{8, 3},   {16, 3},  {24, 3}, {32, 3},
                {20, 24}, {21, 24}, {22, 24}};
  for (const auto [bits, max_group_in] : widths) {
    for (int trial = 0; trial < 40; ++trial, ++cases) {
      const ConvCase c = RandomConvCase(rng, bits, max_group_in);
      const int word_bits = check(c, 0, false);
      const std::int64_t taps = c.channels / c.group * c.k * c.k;
      ++sides[bits][sim::SumBits(word_bits, bits, taps) <=
                            sim::kConvTileExactBits
                        ? 0
                        : 1];
    }
  }
  for (const int bits : {20, 21, 22, 24})
    EXPECT_TRUE(sides[bits][0] > 0 && sides[bits][1] > 0) << bits << " bits";

  // 3x3 stride-1 layers, per row on one side of the Winograd route.
  // Below 56 input channels per group a layer stays direct.  A 17-bit
  // format keeps its weights in 3-byte words, so WinogradSumBits(24, 17,
  // 56) = 54 passes the 53-bit bound.  A 16-bit format in 2-byte words
  // reaches the bound at 8192 to 16383 channels (the deep row that always
  // draws extremes) and passes it from 16384.
  const struct {
    int bits;
    std::int64_t min_in, max_in;
    bool deep, route;
    int trials;
  } rows[] = {{8, 56, 72, false, true, 12},
              {16, 56, 72, false, true, 12},
              {16, 8, 55, false, false, 12},
              {17, 56, 72, false, false, 12},
              {16, 8192, 16383, true, true, 8},
              {16, 16384, 16400, true, false, 4}};
  std::array<int, 2> out_parity{};  // even, odd output widths
  constexpr std::size_t kBatches[] = {0, 1, 4, 5};
  for (const auto& r : rows) {
    for (int trial = 0; trial < r.trials; ++trial, ++cases) {
      const std::int64_t group_in =
          r.min_in + static_cast<std::int64_t>(rng.UniformInt(
                         static_cast<std::uint64_t>(r.max_in - r.min_in + 1)));
      ConvCase c =
          RandomThreeByThreeCase(rng, r.bits, group_in, trial % 3, r.deep);
      c.extremes = c.extremes || r.deep;
      const int word_bits = check(c, kBatches[trial % 4], true);
      EXPECT_EQ(sim::WinogradRoute(3, 1, group_in, word_bits, r.bits),
                r.route)
          << r.bits << " bits, " << group_in << " channels";
      if (r.deep) {
        EXPECT_EQ(sim::WinogradSumBits(word_bits, r.bits, group_in),
                  sim::kConvTileExactBits + (r.route ? 0 : 1));
      }
      ++out_parity[(c.width + 2 * c.pad - 2) % 2];
    }
  }
  EXPECT_TRUE(out_parity[0] > 0 && out_parity[1] > 0);
  EXPECT_EQ(cases, 340);
}

/// One k x k convolution without bias over a `channels` x k x k input
/// (one output pixel): its weight words are set to w(t) straight in the
/// image, as flipped bits may set them, and its input raws to x(t), for
/// tap t in (channel, ky, kx) order.  Returns the output raw under every
/// kernel backend.
template <typename WordOf, typename RawOf>
std::vector<std::int64_t> RunWordWideConv(int bits, int frac, std::int64_t k,
                                          std::int64_t channels, WordOf w,
                                          RawOf x) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  const std::vector<sim::KernelBackend> backends = sim::AvailableBackends();
  const std::string side = std::to_string(k);
  const Network net = Network::Build(ParseNetworkDef(
      "input: \"data\"\ninput_dim: 1\ninput_dim: " +
      std::to_string(channels) + "\ninput_dim: " + side +
      "\ninput_dim: " + side +
      "\nlayers { name: \"conv\" type: CONVOLUTION bottom: \"data\" "
      "top: \"conv\" convolution_param { num_output: 1 kernel_size: " +
      side + " bias_term: false } }\n"));
  DesignConstraint constraint = DbConstraint();
  constraint.bit_width = bits;
  constraint.frac_bits = frac;
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  MemoryImage image(design.memory_map.total_bytes());
  WriteWeights(image, net, design, WeightStore::CreateFor(net));
  const WeightRegionLayout layout =
      LayoutWeightRegion(net.layer(net.OutputLayer().id), design);
  const std::int64_t taps = channels * k * k;
  EXPECT_EQ(layout.counts.weights, taps);
  Tensor input(Shape{channels, k, k});
  for (std::int64_t t = 0; t < taps; ++t) {
    image.WriteElem(layout.weights_addr + t * elem_bytes, w(t), elem_bytes);
    input[t] = static_cast<float>(fmt.Dequantize(x(t)));
  }
  std::vector<std::int64_t> out;
  for (const sim::KernelBackend backend : backends) {
    sim::SetKernelBackend(backend);
    const Tensor y = FunctionalSimulator(net, design, image).Run(input);
    EXPECT_EQ(y.size(), 1);
    out.push_back(fmt.Quantize(static_cast<double>(y[0])));
  }
  return out;
}

/// A flipped bit can set any bit of a weight's stored word, not just the
/// format's, so every accumulation bound counts the word's width.
TEST(FunctionalSim, WordWideWeightsStayExact) {
  // int64: a 28-bit format keeps its weights in 32-bit words, and 36
  // INT32_MIN words against the most negative activation sum to
  // 36 * 2^58, past int64.  The layer runs at __int128 and saturates to
  // +raw_max (a wrapped int64 sum came out as -raw_max).
  const std::int64_t raw_max_28 = (std::int64_t{1} << 27) - 1;
  for (const std::int64_t raw : RunWordWideConv(
           28, 8, 6, 1,
           [](std::int64_t) { return std::numeric_limits<std::int32_t>::min(); },
           [](std::int64_t) { return -(std::int64_t{1} << 27); }))
    EXPECT_EQ(raw, raw_max_28);
  // double: a 20-bit format keeps its weights in 3-byte words.  Over a
  // 65x65 kernel the format's bits would admit the double tile
  // (19 + 19 + 13 = 51 bits) but the words' do not (23 + 19 + 13 = 55).
  // 2049 taps of (-2^23) x (-2^19) lift the sum past 2^53, where tap 2049
  // adds 1, which a double cannot hold there; 2049 taps of
  // (-2^23) x (2^19 - 1) and one of (-2^23) x 2049 take it back down.
  // The exact sum is 1; the double tile would return 0.
  constexpr std::int64_t kUp = 2049;
  const auto w = [](std::int64_t t) -> std::int64_t {
    if (t == kUp) return 1;
    return t <= 2 * kUp + 1 ? -(std::int64_t{1} << 23) : 0;
  };
  const auto x = [](std::int64_t t) -> std::int64_t {
    if (t < kUp) return -(std::int64_t{1} << 19);
    if (t == kUp) return 1;
    if (t <= 2 * kUp) return (std::int64_t{1} << 19) - 1;
    return t == 2 * kUp + 1 ? kUp : 0;
  };
  for (const std::int64_t raw : RunWordWideConv(20, 0, 65, 1, w, x))
    EXPECT_EQ(raw, 1);
  // Winograd: a 17-bit format keeps its weights in 3-byte words.  Over
  // 914 input channels of a 3x3 kernel the format's bits would admit the
  // Winograd route (16 + 16 + 10 + 9 = 51 bits) but the words' do not
  // (23 + 16 + 10 + 9 = 58); the direct double tile still holds
  // (SumBits(24, 17, 8226) = 53).  With every tap of a channel equal,
  // transform position (1, 1) gains 36 w x per channel: 456 channels of
  // (-2^23) x (-2^16) lift it past 2^53, where a channel with 1 x 1 at
  // its centre tap adds 1 that a double cannot hold there; 456 channels
  // of (-2^23) x (2^16 - 1) and one of (-2^23) x 456 take it back down.
  // The exact sum is 1; the Winograd route would return 0 (3/4,
  // truncated).
  constexpr std::int64_t kLift = 456;
  constexpr std::int64_t kChannels = 2 * kLift + 2;
  EXPECT_TRUE(sim::WinogradRoute(3, 1, kChannels, 17, 17));
  EXPECT_FALSE(sim::WinogradRoute(3, 1, kChannels, 24, 17));
  const auto w3 = [](std::int64_t t) -> std::int64_t {
    if (t / 9 == kLift) return t % 9 == 4 ? 1 : 0;
    return -(std::int64_t{1} << 23);
  };
  const auto x3 = [](std::int64_t t) -> std::int64_t {
    const std::int64_t c = t / 9;
    if (c < kLift) return -(std::int64_t{1} << 16);
    if (c == kLift) return t % 9 == 4 ? 1 : 0;
    return c <= 2 * kLift ? (std::int64_t{1} << 16) - 1 : kLift;
  };
  for (const std::int64_t raw : RunWordWideConv(17, 0, 3, kChannels, w3, x3))
    EXPECT_EQ(raw, 1);
}

/// The Winograd route transforms the weights from the image on every
/// batch: a bit flipped in one weight word between two RunBatch calls
/// moves the second batch's outputs exactly as the direct reference over
/// the flipped image predicts, and only in that weight's output channel.
TEST(FunctionalSim, WinogradWeightFlipReachesTheNextBatch) {
  const ConvCase c{16, 8, 64, 7, 9, 6, 3, 1, 1, 1, false};
  const Network net = Network::Build(ParseNetworkDef(ConvScript(c)));
  DesignConstraint constraint = DbConstraint();
  constraint.bit_width = c.bits;
  constraint.frac_bits = c.frac;
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  ASSERT_TRUE(sim::WinogradRoute(3, 1, c.channels, 8 * elem_bytes,
                                 fmt.total_bits()));
  Rng rng(1509);
  WeightStore weights = WeightStore::CreateFor(net);
  LayerParams& params = weights.at("conv");
  for (Tensor* t : {&params.weights, &params.bias})
    for (std::int64_t i = 0; i < t->size(); ++i)
      (*t)[i] = static_cast<float>(
          fmt.Dequantize(RandomRaw(rng, fmt, false) / 64));
  MemoryImage image(design.memory_map.total_bytes());
  WriteWeights(image, net, design, weights);

  std::vector<Tensor> inputs;
  std::vector<std::vector<__int128>> in_raw;
  for (int b = 0; b < 4; ++b) {
    inputs.emplace_back(Shape{c.channels, c.height, c.width});
    in_raw.emplace_back();
    for (std::int64_t i = 0; i < inputs.back().size(); ++i) {
      const std::int64_t raw = RandomRaw(rng, fmt, false) / 64;
      inputs.back()[i] = static_cast<float>(fmt.Dequantize(raw));
      in_raw.back().push_back(raw);
    }
  }
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);

  const FunctionalSimulator sim(net, design, image);
  const std::vector<Tensor> before = sim.RunBatch(ptrs);
  for (std::size_t b = 0; b < before.size(); ++b)
    EXPECT_EQ(Mismatches(before[b].storage(),
                         ExactConv(net, design, image, in_raw[b])),
              0);

  // Bit 12 of output channel 2's weight for input channel 5, tap (1, 1).
  constexpr std::int64_t kChannel = 2;
  const WeightRegionLayout layout =
      LayoutWeightRegion(net.OutputLayer(), design);
  const std::int64_t index = ((kChannel * c.channels + 5) * 3 + 1) * 3 + 1;
  image.FlipBit(layout.weights_addr + index * elem_bytes + 1, 4);
  const std::vector<Tensor> after = sim.RunBatch(ptrs);
  const std::int64_t plane = c.height * c.width;
  for (std::size_t b = 0; b < after.size(); ++b) {
    EXPECT_EQ(Mismatches(after[b].storage(),
                         ExactConv(net, design, image, in_raw[b])),
              0);
    std::int64_t moved = 0;
    for (std::int64_t i = 0; i < after[b].size(); ++i) {
      if (after[b][i] == before[b][i]) continue;
      EXPECT_EQ(i / plane, kChannel) << "output " << i;
      ++moved;
    }
    EXPECT_GT(moved, 0) << "image " << b;
  }
}

/// The route rule over the zoo at each model's generated format: the
/// wide 3x3 stride-1 layers take the Winograd route; MNIST's 1- and
/// 8-channel 3x3 layers, Cifar's 3- and 16-channel ones and every other
/// kernel size or stride stay on the direct tile.
TEST(FunctionalSim, WinogradRouteTakesTheWideThreeByThreeZooLayers) {
  std::vector<std::string> routed;
  for (const ZooModel model : AllZooModels()) {
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
    const int word_bits = 8 * static_cast<int>(design.config.ElementBytes());
    for (const IrLayer& layer : net.layers()) {
      if (layer.kind() != LayerKind::kConvolution) continue;
      const ConvolutionParams& p = *layer.def.conv;
      const std::int64_t group_in =
          net.layer(layer.input_ids.front()).output_shape.channels / p.group;
      if (sim::WinogradRoute(p.kernel_size, p.stride, group_in, word_bits,
                             design.config.format.total_bits()))
        routed.push_back(ZooModelName(model) + "/" + layer.name());
    }
  }
  EXPECT_EQ(routed, (std::vector<std::string>{
                        "Alexnet/conv3", "Alexnet/conv4", "Alexnet/conv5",
                        "NiN/conv3", "NiN/conv4"}));
  // Alexnet's widest, conv3 (256 input channels), at 16-bit words.
  EXPECT_EQ(sim::WinogradSumBits(16, 16, 256), 48);
}

// ------------------------------------------- LRN vs exact reference

/// Every raw output of one LRN layer, under every kernel backend,
/// against the per-element loop the simulator ran before it moved to
/// whole planes: an __int128 sum of squares over the clipped channel
/// window, the hardware rounder, then Add(1, Mul(alpha / n, sum)), the
/// x^-beta LUT and Mul(in, pow), one element at a time.  Covers every
/// local size on channel counts equal to and above it, alpha 0 and > 0,
/// and widths on both sides of the int64 accumulation guard (32 bits
/// runs the __int128 path).
TEST(FunctionalSim, LrnMatchesExactReference) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  const std::vector<sim::KernelBackend> backends = sim::AvailableBackends();
  Rng rng(2016);
  int cases = 0;
  for (const int bits : {8, 16, 24, 32}) {
    for (const std::int64_t local_size : {1, 3, 5, 7}) {
      for (int trial = 0; trial < 3; ++trial, ++cases) {
        const int frac = bits / 4 + static_cast<int>(rng.UniformInt(
                                        static_cast<std::uint64_t>(bits / 2)));
        // Channel counts at the window (the frontend rejects fewer) and
        // above it.
        const std::int64_t channels =
            trial == 0 ? local_size
                       : local_size + 1 +
                             static_cast<std::int64_t>(rng.UniformInt(6));
        const std::int64_t height =
            1 + static_cast<std::int64_t>(rng.UniformInt(7));
        const std::int64_t width =
            1 + static_cast<std::int64_t>(rng.UniformInt(13));
        const double alpha = trial == 1 ? 0.0 : 0.5 * (1 + trial);
        const bool extremes = rng.Bernoulli(0.3);
        std::string script = "input: \"data\"\ninput_dim: 1\n";
        for (const std::int64_t d : {channels, height, width})
          script += "input_dim: " + std::to_string(d) + "\n";
        script +=
            "layers { name: \"norm\" type: LRN bottom: \"data\" "
            "top: \"norm\" lrn_param { local_size: ";
        script += std::to_string(local_size) + " alpha: " +
                  StrFormat("%g", alpha) + " beta: 0.75 } }\n";
        SCOPED_TRACE(StrFormat("bits=%d frac=%d extremes=%d\n", bits, frac,
                               extremes ? 1 : 0) +
                     script);
        const Network net = Network::Build(ParseNetworkDef(script));
        DesignConstraint constraint = DbConstraint();
        constraint.bit_width = bits;
        constraint.frac_bits = frac;
        const AcceleratorDesign design = GenerateAccelerator(net, constraint);
        const FixedFormat& fmt = design.config.format;
        const WeightStore weights = WeightStore::CreateFor(net);
        const FunctionalSimulator probe(net, design, weights);
        const ApproxLut& lut = probe.LutFor(LutFunction::kLrnPow);

        Tensor input(Shape{channels, height, width});
        std::vector<std::int64_t> in_raw(
            static_cast<std::size_t>(input.size()));
        for (std::int64_t i = 0; i < input.size(); ++i) {
          input[i] = static_cast<float>(
              fmt.Dequantize(RandomRaw(rng, fmt, extremes)));
          in_raw[static_cast<std::size_t>(i)] =
              fmt.Quantize(static_cast<double>(input[i]));
        }

        const std::int64_t plane = height * width;
        const std::int64_t half = local_size / 2;
        const std::int64_t alpha_raw =
            fmt.Quantize(alpha / static_cast<double>(local_size));
        const std::int64_t one_raw = fmt.Quantize(1.0);
        std::vector<float> want;
        for (std::int64_t c = 0; c < channels; ++c)
          for (std::int64_t i = 0; i < plane; ++i) {
            __int128 sum_sq = 0;
            for (std::int64_t cc = std::max<std::int64_t>(c - half, 0);
                 cc < std::min(c + half + 1, channels); ++cc) {
              const std::int64_t v =
                  in_raw[static_cast<std::size_t>(cc * plane + i)];
              sum_sq += v * v;
            }
            const std::int64_t sum_raw = static_cast<std::int64_t>(
                std::clamp<__int128>(
                    sim::RoundShiftHalfAway128(sum_sq, fmt.frac_bits()),
                    fmt.raw_min(), fmt.raw_max()));
            const std::int64_t scale_raw =
                fmt.Add(one_raw, fmt.Mul(alpha_raw, sum_raw));
            const std::int64_t pow_raw =
                lut.EvalRaw(static_cast<std::int32_t>(scale_raw));
            want.push_back(static_cast<float>(fmt.Dequantize(fmt.Mul(
                in_raw[static_cast<std::size_t>(c * plane + i)], pow_raw))));
          }

        for (const sim::KernelBackend backend : backends) {
          SCOPED_TRACE(sim::KernelBackendName(backend));
          sim::SetKernelBackend(backend);
          const std::vector<float> got =
              FunctionalSimulator(net, design, weights).Run(input).storage();
          ASSERT_EQ(got.size(), want.size());
          std::int64_t mismatches = 0;
          for (std::size_t i = 0; i < got.size(); ++i)
            if (got[i] != want[i] && ++mismatches <= 5)
              ADD_FAILURE() << "output " << i << ": want " << want[i]
                            << " got " << got[i];
          EXPECT_EQ(mismatches, 0);
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
}

}  // namespace
}  // namespace db
