// Microbenchmarks (google-benchmark) for the DeepBurning toolchain
// itself: the paper's "one-click" claim rests on NN-Gen being fast, so
// we measure script parsing, datapath sizing, full generation, RTL
// emission, and the simulators' throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baseline/custom_design.h"
#include "common/fixed_point.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/functional_sim.h"
#include "sim/kernels.h"
#include "sim/perf_model.h"

namespace db {
namespace {

void BM_ParsePrototxt(benchmark::State& state) {
  const std::string script = ZooModelPrototxt(ZooModel::kAlexnet);
  for (auto _ : state)
    benchmark::DoNotOptimize(ParseNetworkDef(script));
}
BENCHMARK(BM_ParsePrototxt);

void BM_BuildNetworkIr(benchmark::State& state) {
  const NetworkDef def =
      ParseNetworkDef(ZooModelPrototxt(ZooModel::kAlexnet));
  for (auto _ : state) benchmark::DoNotOptimize(Network::Build(def));
}
BENCHMARK(BM_BuildNetworkIr);

void BM_GenerateAcceleratorMnist(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  for (auto _ : state)
    benchmark::DoNotOptimize(GenerateAccelerator(net, DbConstraint()));
}
BENCHMARK(BM_GenerateAcceleratorMnist);

void BM_GenerateAcceleratorAlexnet(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kAlexnet);
  for (auto _ : state)
    benchmark::DoNotOptimize(GenerateAccelerator(net, DbConstraint()));
}
BENCHMARK(BM_GenerateAcceleratorAlexnet);

void BM_EmitVerilog(benchmark::State& state) {
  const AcceleratorDesign design =
      GenerateAccelerator(BuildZooModel(ZooModel::kAlexnet),
                          DbConstraint());
  for (auto _ : state)
    benchmark::DoNotOptimize(EmitVerilog(design.rtl));
}
BENCHMARK(BM_EmitVerilog);

void BM_PerfSimAlexnet(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kAlexnet);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (auto _ : state)
    benchmark::DoNotOptimize(SimulatePerformance(net, design));
}
BENCHMARK(BM_PerfSimAlexnet);

void BM_FunctionalSimMnist(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Rng rng(1);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const FunctionalSimulator sim(net, design, weights);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(sim.Run(input));
}
BENCHMARK(BM_FunctionalSimMnist);

/// One backend's conv_tile alone, over Alexnet conv2's sweep of one
/// group: 48 input channels of 5x5 taps (1200 per call) on a 31 x 36
/// zero-padded plane, 128 output channels in tiles of 8, 27 output rows
/// of 4 tiles of 8 pixels.  The MACs counter is the tile's multiply-add
/// rate: kConvTileChannels x kConvTilePixels x taps per call.
void BM_ConvTile(benchmark::State& state, sim::KernelBackend backend) {
  const std::vector<sim::KernelBackend> live = sim::AvailableBackends();
  if (std::find(live.begin(), live.end(), backend) == live.end()) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  const sim::KernelOps& ops = sim::KernelsFor(backend);
  constexpr std::int64_t kC = sim::kConvTileChannels;
  constexpr std::int64_t kP = sim::kConvTilePixels;
  constexpr std::int64_t kIn = 48, kK = 5, kOut = 128, kSide = 27;
  constexpr std::int64_t kRows = kSide + kK - 1;
  constexpr std::int64_t kRowW = (kSide + kP - 1) / kP * kP + kK - 1;
  constexpr std::int64_t kTaps = kIn * kK * kK;
  Rng rng(1);
  const auto draw = [&](std::int64_t n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (double& x : v)
      x = static_cast<double>(
          static_cast<std::int64_t>(rng.UniformInt(1 << 16)) - (1 << 15));
    return v;
  };
  const std::vector<double> in = draw(kIn * kRows * kRowW);
  const std::vector<double> w = draw(kOut * kTaps);
  std::vector<std::int64_t> off;
  for (std::int64_t c = 0; c < kIn; ++c)
    for (std::int64_t ky = 0; ky < kK; ++ky)
      for (std::int64_t kx = 0; kx < kK; ++kx)
        off.push_back((c * kRows + ky) * kRowW + kx);
  std::vector<double> acc(kC * kP);
  for (auto _ : state) {
    for (std::int64_t oc0 = 0; oc0 < kOut; oc0 += kC)
      for (std::int64_t y = 0; y < kSide; ++y)
        for (std::int64_t x0 = 0; x0 < kSide; x0 += kP) {
          ops.conv_tile(acc.data(), w.data() + oc0 * kTaps,
                        in.data() + y * kRowW + x0, off.data(),
                        static_cast<std::size_t>(kTaps));
          benchmark::DoNotOptimize(acc.data());
          benchmark::ClobberMemory();
        }
  }
  const double macs_per_sweep = static_cast<double>(
      kOut * kSide * ((kSide + kP - 1) / kP) * kP * kTaps);
  state.counters["MACs"] = benchmark::Counter(
      macs_per_sweep * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ConvTile, scalar, sim::KernelBackend::kScalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ConvTile, avx2, sim::KernelBackend::kAvx2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ConvTile, avx512, sim::KernelBackend::kAvx512)
    ->Unit(benchmark::kMillisecond);

struct ConvGeometry {
  int channels, side, num_output, kernel, pad, group, stride = 1;
};

/// Host time of one convolution as a one-layer network on its own input
/// geometry, through a batch-of-4 RunBatch as serving runs it.
/// items_per_second counts images, so ms per image is
/// 1000 / items_per_second.
void RunConvLayer(benchmark::State& state, const ConvGeometry& g) {
  const auto dim = [](int d) { return "input_dim: " + std::to_string(d) + "\n"; };
  std::string script = "input: \"data\"\n";
  script += dim(1);
  script += dim(g.channels);
  script += dim(g.side);
  script += dim(g.side);
  script += "layers { name: \"conv\" type: CONVOLUTION bottom: \"data\" "
            "top: \"conv\" convolution_param { num_output: ";
  script += std::to_string(g.num_output) + " kernel_size: ";
  script += std::to_string(g.kernel) + " pad: ";
  script += std::to_string(g.pad) + " group: ";
  script += std::to_string(g.group) + " stride: ";
  script += std::to_string(g.stride) + " } }\n";
  const Network net = Network::Build(ParseNetworkDef(script));
  Rng rng(1);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  const FunctionalSimulator sim(net, design, weights);
  constexpr int kBatch = 4;
  std::vector<Tensor> inputs;
  std::vector<const Tensor*> ptrs;
  for (int b = 0; b < kBatch; ++b) {
    inputs.emplace_back(Shape{g.channels, g.side, g.side});
    inputs.back().FillUniform(rng, 0.0f, 1.0f);
  }
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  for (auto _ : state) benchmark::DoNotOptimize(sim.RunBatch(ptrs));
  state.SetItemsProcessed(state.iterations() * kBatch);
}

/// Alexnet's conv1..conv5 (the range argument).
void BM_AlexnetConvLayer(benchmark::State& state) {
  constexpr ConvGeometry kConvs[] = {{3, 227, 96, 11, 0, 1, 4},
                                     {96, 27, 256, 5, 2, 2},
                                     {256, 13, 384, 3, 1, 1},
                                     {384, 13, 384, 3, 1, 2},
                                     {384, 13, 256, 3, 1, 2}};
  RunConvLayer(state, kConvs[state.range(0) - 1]);
}
BENCHMARK(BM_AlexnetConvLayer)
    ->ArgName("conv")
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMillisecond);

/// The narrow 3x3 stride-1 zoo layers at 8 to 64 input channels (the
/// range argument), where sim::kWinogradMinGroupIn splits the routes:
/// MNIST's conv2 (5x5 input, pad 0, 3x3 output) and Cifar's conv2 (8x8
/// input and output, pad 1), each with 16 output channels.
void BM_MnistConv2Geometry(benchmark::State& state) {
  RunConvLayer(state, {static_cast<int>(state.range(0)), 5, 16, 3, 0, 1});
}
BENCHMARK(BM_MnistConv2Geometry)
    ->ArgName("in")
    ->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_CifarConv2Geometry(benchmark::State& state) {
  RunConvLayer(state, {static_cast<int>(state.range(0)), 8, 16, 3, 1, 1});
}
BENCHMARK(BM_CifarConv2Geometry)
    ->ArgName("in")
    ->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(40)->Arg(48)->Arg(56)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_FloatExecutorMnist(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  Rng rng(1);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const Executor exec(net, weights);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(exec.ForwardOutput(input));
}
BENCHMARK(BM_FloatExecutorMnist);

void BM_FixedPointMac(benchmark::State& state) {
  const FixedFormat fmt(16, 8);
  const std::int64_t a = fmt.Quantize(1.37);
  const std::int64_t b = fmt.Quantize(-0.82);
  std::int64_t acc = 0;
  for (auto _ : state) {
    acc = fmt.Add(acc, fmt.Mul(a, b));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FixedPointMac);

void BM_CustomDesignCifar(benchmark::State& state) {
  const Network net = BuildZooModel(ZooModel::kCifar);
  for (auto _ : state)
    benchmark::DoNotOptimize(BuildCustomDesign(net));
}
BENCHMARK(BM_CustomDesignCifar);

}  // namespace
}  // namespace db

BENCHMARK_MAIN();
