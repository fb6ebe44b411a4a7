// Tests for the post-paper extensions: range profiler / auto
// quantisation, testbench emission, batch-throughput simulation, and the
// inception (multi-producer) flow.
#include <gtest/gtest.h>

#include "analysis/rtl_verifier.h"
#include "baseline/accuracy.h"
#include "common/error.h"
#include "core/generator.h"
#include "core/range_profiler.h"
#include "models/trained.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "rtl/testbench.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

namespace db {
namespace {

// ---------------------------------------------------------------- ranges

TEST(RangeProfiler, CollectsPerLayerMaxima) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  Rng rng(3);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 4; ++i) {
    Tensor t(Shape{1, 1, 1});
    Rng in_rng(static_cast<std::uint64_t>(i) + 10);
    t.FillUniform(in_rng, 0.0f, 1.0f);
    inputs.push_back(std::move(t));
  }
  const RangeProfile profile = ProfileRanges(net, weights, inputs);
  EXPECT_EQ(profile.layers.size(), net.ComputeLayers().size());
  EXPECT_GT(profile.max_abs_activation, 0.0f);
  EXPECT_GT(profile.max_abs_weight, 0.0f);
  for (const LayerRange& r : profile.layers)
    EXPECT_LE(r.max_abs_activation, profile.max_abs_activation + 1e-6f);
  EXPECT_NE(profile.ToString().find("fc1"), std::string::npos);
}

TEST(RangeProfiler, NeedsInputs) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  const WeightStore weights = WeightStore::CreateFor(net);
  EXPECT_THROW(ProfileRanges(net, weights, {}), Error);
}

TEST(RangeProfiler, ChooseFormatCoversPeakWithHeadroom) {
  RangeProfile profile;
  profile.max_abs_activation = 3.0f;
  profile.max_abs_weight = 1.0f;
  const FixedFormat fmt = ChooseFormat(profile, 16, 2.0);
  EXPECT_GE(fmt.value_max(), 6.0);      // covers peak * headroom
  EXPECT_LE(fmt.value_max(), 16.0);     // but stays narrow
  EXPECT_EQ(fmt.total_bits(), 16);
}

TEST(RangeProfiler, SmallRangesGetMoreFraction) {
  RangeProfile small;
  small.max_abs_activation = 0.9f;
  RangeProfile big;
  big.max_abs_activation = 100.0f;
  EXPECT_GT(ChooseFormat(small, 16).frac_bits(),
            ChooseFormat(big, 16).frac_bits());
}

TEST(RangeProfiler, ImpossibleFitThrows) {
  RangeProfile profile;
  profile.max_abs_activation = 1e9f;
  EXPECT_THROW(ChooseFormat(profile, 8), Error);
}

TEST(RangeProfiler, AutoQuantizeImprovesNarrowWidths) {
  // At 10 bits, the profiled split should beat the default Q4.5 on the
  // trained fft approximator whose values live in [-1, 1].
  const TrainedModel model = TrainZooAnn(ZooModel::kAnn0Fft, 7, 200, 25);
  std::vector<Tensor> calib;
  for (int i = 0; i < 8 && i < static_cast<int>(model.test_set.size());
       ++i)
    calib.push_back(model.test_set[static_cast<std::size_t>(i)].input);
  const RangeProfile profile =
      ProfileRanges(model.net, model.weights, calib);

  auto accuracy_with = [&](const DesignConstraint& c) {
    const AcceleratorDesign design = GenerateAccelerator(model.net, c);
    FunctionalSimulator sim(model.net, design, model.weights);
    return ScoreModelPct(model,
                         [&](const Tensor& t) { return sim.Run(t); });
  };
  DesignConstraint narrow = DbConstraint();
  narrow.bit_width = 10;
  narrow.frac_bits = 5;  // naive split wastes integer bits
  const double naive_acc = accuracy_with(narrow);
  const DesignConstraint tuned = AutoQuantize(narrow, profile);
  EXPECT_GT(tuned.frac_bits, narrow.frac_bits);
  const double tuned_acc = accuracy_with(tuned);
  EXPECT_GE(tuned_acc, naive_acc - 1e-9);
}

// ------------------------------------------------------------- testbench

TEST(Testbench, EmitsBoundDutAndWatchdog) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  const std::string tb = EmitTestbench(design.rtl);
  EXPECT_NE(tb.find("module tb_" + design.rtl.top), std::string::npos);
  EXPECT_NE(tb.find(design.rtl.top + " dut ("), std::string::npos);
  // Every top port must be bound in the instantiation.
  const VModule* top = design.rtl.FindModule(design.rtl.top);
  ASSERT_NE(top, nullptr);
  for (const VPort& p : top->ports)
    EXPECT_NE(tb.find("." + p.name + "(" + p.name + ")"),
              std::string::npos)
        << p.name;
  EXPECT_NE(tb.find("$fatal"), std::string::npos);
  EXPECT_NE(tb.find("$finish"), std::string::npos);
  EXPECT_NE(tb.find("araddr"), std::string::npos);  // AXI trace enabled
}

TEST(Testbench, OptionsRespected) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  TestbenchOptions opts;
  opts.trace_axi = false;
  opts.max_cycles = 777;
  const std::string tb = EmitTestbench(design.rtl, opts);
  EXPECT_EQ(tb.find("araddr %0d"), std::string::npos);
  EXPECT_NE(tb.find("777"), std::string::npos);
}

TEST(Testbench, MissingTopThrows) {
  VDesign empty;
  empty.top = "nope";
  EXPECT_THROW(EmitTestbench(empty), Error);
}

// ----------------------------------------------------------------- batch

TEST(BatchSim, SteadyStateNoSlowerThanCold) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const BatchResult batch = SimulateBatch(net, design, 16);
  EXPECT_EQ(batch.images, 16);
  EXPECT_LE(batch.steady_image_cycles, batch.first_image_cycles);
  EXPECT_EQ(batch.total_cycles,
            batch.first_image_cycles + 15 * batch.steady_image_cycles);
  EXPECT_GT(batch.ThroughputImagesPerSecond(), 0.0);
}

TEST(BatchSim, ThroughputImprovesWithBatchOnWeightHeavyModels) {
  // Cifar's weights fit the on-chip buffer and its weight traffic is a
  // measurable share of the runtime: steady-state images skip the weight
  // fetch, so batch-16 throughput beats batch-1.
  const Network net = BuildZooModel(ZooModel::kCifar);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const BatchResult single = SimulateBatch(net, design, 1);
  const BatchResult batched = SimulateBatch(net, design, 16);
  EXPECT_GT(batched.ThroughputImagesPerSecond(),
            single.ThroughputImagesPerSecond());
}

TEST(BatchSim, SingleImageMatchesPerf) {
  const Network net = BuildZooModel(ZooModel::kCifar);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const BatchResult batch = SimulateBatch(net, design, 1);
  const PerfResult perf = SimulatePerformance(net, design);
  EXPECT_EQ(batch.total_cycles, perf.total_cycles);
  EXPECT_DOUBLE_EQ(batch.LatencySeconds(), perf.TotalSeconds());
}

TEST(BatchSim, InvalidBatchRejected) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  EXPECT_THROW(SimulateBatch(net, design, 0), std::logic_error);
}

// ------------------------------------------------------------- inception

TEST(Inception, BuildsAndGenerates) {
  const Network net =
      Network::Build(ParseNetworkDef(InceptionDemoPrototxt()));
  // Concat sums the branch channels: 8 + 8 + 4 + 8 = 28.
  for (const IrLayer& layer : net.layers()) {
    if (layer.name() == "cat") {
      EXPECT_EQ(layer.output_shape, (BlobShape{28, 14, 14}));
    }
  }

  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  EXPECT_TRUE(analysis::VerifyRtl(design.rtl).ok());
  EXPECT_TRUE(design.config.has_connection_box);  // concat wiring
}

TEST(Inception, ConcatGetsOneLoadPatternPerBranch) {
  const Network net =
      Network::Build(ParseNetworkDef(InceptionDemoPrototxt()));
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const IrLayer* cat = nullptr;
  for (const IrLayer* layer : net.ComputeLayers())
    if (layer->name() == "cat") cat = layer;
  ASSERT_NE(cat, nullptr);
  int loads = 0;
  for (const AguPattern* p : design.agu_program.ForLayer(cat->id))
    if (p->kind == TransferKind::kLoadInput) ++loads;
  EXPECT_EQ(loads, 4);  // b1, b3, b5, pool_branch
}

TEST(Inception, FixedPointTracksFloat) {
  const Network net =
      Network::Build(ParseNetworkDef(InceptionDemoPrototxt()));
  Rng rng(17);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  Executor exec(net, weights);
  FunctionalSimulator sim(net, design, weights);
  Tensor input(Shape{8, 14, 14});
  input.FillUniform(rng, 0.0f, 1.0f);
  const Tensor ref = exec.ForwardOutput(input);
  const Tensor fixed = sim.Run(input);
  EXPECT_LT(MaxAbsDiff(ref, fixed), 0.1);
}

}  // namespace
}  // namespace db
