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

/// Every raw output of one convolution, under every kernel backend,
/// against a naive __int128 seven-loop reference: bias aligned to 2f
/// fractional bits, exact products, the hardware rounder and
/// saturation.  Covers strided AND padded kernels (no zoo model has
/// one), grouped channels, output channel counts off the 4-wide tile,
/// kernels wider than the unpadded input, widths on both sides of the
/// int64 accumulation guard, and layers on both sides of the double
/// tile's exactness bound.
TEST(FunctionalSim, ConvMatchesExactReference) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  std::vector<sim::KernelBackend> backends{sim::KernelBackend::kScalar};
  if (sim::Avx2Available()) backends.push_back(sim::KernelBackend::kAvx2);
  Rng rng(1512);
  int cases = 0;
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
      const std::string script = ConvScript(c);
      SCOPED_TRACE(StrFormat("bits=%d frac=%d extremes=%d\n", c.bits,
                             c.frac, c.extremes ? 1 : 0) +
                   script);
      const Network net = Network::Build(ParseNetworkDef(script));
      DesignConstraint constraint = DbConstraint();
      constraint.bit_width = c.bits;
      constraint.frac_bits = c.frac;
      const AcceleratorDesign design = GenerateAccelerator(net, constraint);
      const FixedFormat& fmt = design.config.format;
      const int elem_bytes = static_cast<int>(design.config.ElementBytes());
      const std::int64_t taps = c.channels / c.group * c.k * c.k;
      ++sides[bits][sim::SumBits(8 * elem_bytes, bits, taps) <=
                            sim::kConvTileExactBits
                        ? 0
                        : 1];

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
      const WeightRegionLayout layout =
          LayoutWeightRegion(net.layer(net.OutputLayer().id), design);
      const auto w_raw = [&](std::int64_t i) -> __int128 {
        return image.ReadElem(layout.weights_addr + i * elem_bytes,
                              elem_bytes);
      };
      const auto b_raw = [&](std::int64_t i) -> __int128 {
        if (layout.counts.bias == 0) return 0;
        return image.ReadElem(layout.bias_addr + i * elem_bytes,
                              elem_bytes);
      };

      Tensor input(Shape{c.channels, c.height, c.width});
      std::vector<__int128> in_raw(static_cast<std::size_t>(input.size()));
      for (std::int64_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>(
            fmt.Dequantize(RandomRaw(rng, fmt, c.extremes)));
        in_raw[static_cast<std::size_t>(i)] =
            fmt.Quantize(static_cast<double>(input[i]));
      }

      const BlobShape& os = net.OutputLayer().output_shape;
      const std::int64_t group_in = c.channels / c.group;
      const std::int64_t group_out = c.num_output / c.group;
      std::vector<float> want;
      for (std::int64_t oc = 0; oc < os.channels; ++oc)
        for (std::int64_t y = 0; y < os.height; ++y)
          for (std::int64_t x = 0; x < os.width; ++x) {
            __int128 acc = b_raw(oc) << fmt.frac_bits();
            for (std::int64_t g = 0; g < group_in; ++g)
              for (std::int64_t ky = 0; ky < c.k; ++ky)
                for (std::int64_t kx = 0; kx < c.k; ++kx) {
                  const std::int64_t iy = y * c.stride - c.pad + ky;
                  const std::int64_t ix = x * c.stride - c.pad + kx;
                  if (iy < 0 || iy >= c.height || ix < 0 || ix >= c.width)
                    continue;
                  const std::int64_t ic = (oc / group_out) * group_in + g;
                  acc += w_raw(((oc * group_in + g) * c.k + ky) * c.k + kx) *
                         in_raw[static_cast<std::size_t>(
                             (ic * c.height + iy) * c.width + ix)];
                }
            __int128 v = sim::RoundShiftHalfAway128(acc, fmt.frac_bits());
            v = std::clamp<__int128>(v, fmt.raw_min(), fmt.raw_max());
            // The simulator's boundary view of a raw value; exact (one
            // float per raw) below 2^24 in magnitude.
            want.push_back(static_cast<float>(
                fmt.Dequantize(static_cast<std::int64_t>(v))));
          }

      for (const sim::KernelBackend backend : backends) {
        SCOPED_TRACE(sim::KernelBackendName(backend));
        sim::SetKernelBackend(backend);
        const Tensor out = FunctionalSimulator(net, design, image).Run(input);
        const std::vector<float>& got = out.storage();
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
  EXPECT_EQ(cases, 280);
  for (const int bits : {20, 21, 22, 24})
    EXPECT_TRUE(sides[bits][0] > 0 && sides[bits][1] > 0) << bits << " bits";
}

/// One k x k convolution without bias over a 1 x k x k input (one output
/// pixel): its weight words are set to w(t) straight in the image, as
/// flipped bits may set them, and its input raws to x(t), for tap t in
/// (ky, kx) order.  Returns the output raw under every kernel backend.
template <typename WordOf, typename RawOf>
std::vector<std::int64_t> RunWordWideConv(int bits, int frac, std::int64_t k,
                                          WordOf w, RawOf x) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  std::vector<sim::KernelBackend> backends{sim::KernelBackend::kScalar};
  if (sim::Avx2Available()) backends.push_back(sim::KernelBackend::kAvx2);
  const std::string side = std::to_string(k);
  const Network net = Network::Build(ParseNetworkDef(
      "input: \"data\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: " + side +
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
  EXPECT_EQ(layout.counts.weights, k * k);
  Tensor input(Shape{1, k, k});
  for (std::int64_t t = 0; t < k * k; ++t) {
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
/// format's, so both accumulation bounds count the word's width.
TEST(FunctionalSim, WordWideWeightsStayExact) {
  // int64: a 28-bit format keeps its weights in 32-bit words, and 36
  // INT32_MIN words against the most negative activation sum to
  // 36 * 2^58, past int64.  The layer runs at __int128 and saturates to
  // +raw_max (a wrapped int64 sum came out as -raw_max).
  const std::int64_t raw_max_28 = (std::int64_t{1} << 27) - 1;
  for (const std::int64_t raw : RunWordWideConv(
           28, 8, 6,
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
  for (const std::int64_t raw : RunWordWideConv(20, 0, 65, w, x))
    EXPECT_EQ(raw, 1);
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
  std::vector<sim::KernelBackend> backends{sim::KernelBackend::kScalar};
  if (sim::Avx2Available()) backends.push_back(sim::KernelBackend::kAvx2);
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
