// Tests for the on-chip buffer plan, the schedule's crossbar settings,
// and the shared multi-network accelerator.
#include <gtest/gtest.h>

#include "analysis/rtl_verifier.h"
#include "common/error.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

namespace db {
namespace {

// ------------------------------------------------------------ buffer plan

TEST(BufferPlan, SlotsDisjointAndInBounds) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const BufferPlan& plan = design.buffer_plan;
  EXPECT_EQ(plan.data_buffer_bytes, design.config.data_buffer_bytes);
  EXPECT_EQ(plan.entries.size(), net.ComputeLayers().size());
  for (const BufferPlanEntry& e : plan.entries) {
    EXPECT_GT(e.tile_bytes, 0) << e.layer_name;
    EXPECT_EQ(e.ping.bytes, e.tile_bytes);
    EXPECT_EQ(e.pong.bytes, e.tile_bytes);
    // ping and pong never overlap; staging sits after both halves.
    EXPECT_LE(e.ping.end(), e.pong.base) << e.layer_name;
    EXPECT_LE(e.pong.end(), e.out_stage.base + 1) << e.layer_name;
    EXPECT_LE(e.out_stage.end(), plan.data_buffer_bytes) << e.layer_name;
  }
}

TEST(BufferPlan, TileBytesAlignedToPort) {
  const Network net = BuildZooModel(ZooModel::kCifar);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const std::int64_t beat = design.config.memory_port_elems *
                            design.config.ElementBytes();
  for (const BufferPlanEntry& e : design.buffer_plan.entries)
    EXPECT_EQ(e.tile_bytes % beat, 0) << e.layer_name;
}

TEST(BufferPlan, ResidencyMatchesWorkingSet) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  // The tiny MLP's inputs trivially fit on chip.
  for (const BufferPlanEntry& e : design.buffer_plan.entries)
    EXPECT_TRUE(e.input_resident) << e.layer_name;

  const Network alexnet = BuildZooModel(ZooModel::kAlexnet);
  const AcceleratorDesign big =
      GenerateAccelerator(alexnet, DbConstraint());
  bool any_nonresident = false;
  for (const BufferPlanEntry& e : big.buffer_plan.entries)
    if (!e.input_resident) any_nonresident = true;
  EXPECT_TRUE(any_nonresident);  // 580 KB conv inputs exceed the slot
}

TEST(BufferPlan, ForLayerLookup) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const IrLayer* layer : net.ComputeLayers())
    EXPECT_EQ(design.buffer_plan.ForLayer(layer->id).layer_id,
              layer->id);
  EXPECT_THROW(design.buffer_plan.ForLayer(12345), Error);
}

TEST(BufferPlan, ReportIncludesPlan) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kAnn0Fft), DbConstraint());
  EXPECT_NE(design.Report().find("buffer plan"), std::string::npos);
}

// ------------------------------------------ crossbar settings per layer

TEST(ConnectionPlan, FirstStepConsumesFromDataBuffer) {
  const AcceleratorDesign design = GenerateAccelerator(
      BuildZooModel(ZooModel::kMnist), DbConstraint());
  ASSERT_FALSE(design.schedule.entries.empty());
  EXPECT_EQ(design.schedule.entries.front().producer,
            DatapathPort::kDataBuffer);
  EXPECT_EQ(design.schedule.entries.front().consumer,
            DatapathPort::kSynergyArray);
}

TEST(ConnectionPlan, AveragePoolingGetsShift) {
  // Cifar's pool2 is 2x2 average pooling: shift = log2(4) = 2.
  const Network net = BuildZooModel(ZooModel::kCifar);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  bool found = false;
  for (const ScheduleEntry& e : design.schedule.entries) {
    const IrLayer& layer = net.layer(e.layer_id);
    if (layer.name() == "pool2") {
      EXPECT_EQ(e.shift, 2);
      found = true;
    } else {
      EXPECT_EQ(e.shift, 0) << layer.name();
    }
  }
  EXPECT_TRUE(found);
}

// ----------------------------------------------------- shared accelerator

TEST(SharedAccelerator, OneDatapathServesTwoModels) {
  const Network mnist = BuildZooModel(ZooModel::kMnist);
  const Network ann = BuildZooModel(ZooModel::kAnn0Fft);
  const SharedAccelerator shared =
      GenerateSharedAccelerator({&mnist, &ann}, DbConstraint());
  ASSERT_EQ(shared.designs.size(), 2u);

  // Hardware identical across the per-model views.
  EXPECT_EQ(shared.designs[0].resources.total.lut,
            shared.designs[1].resources.total.lut);
  EXPECT_EQ(EmitVerilog(shared.designs[0].rtl),
            EmitVerilog(shared.designs[1].rtl));
  EXPECT_TRUE(analysis::VerifyRtl(shared.designs[0].rtl).ok());
  EXPECT_TRUE(shared.config.budget.Fits(
      shared.designs[0].resources.total));

  // Union sizing: at least as capable as each model alone.
  const AcceleratorConfig solo_mnist =
      SizeDatapath(mnist, DbConstraint());
  const AcceleratorConfig solo_ann = SizeDatapath(ann, DbConstraint());
  EXPECT_GE(shared.config.TotalLanes(),
            std::max(solo_mnist.TotalLanes(), solo_ann.TotalLanes()));
  EXPECT_GE(shared.config.pooling_lanes, solo_mnist.pooling_lanes);
}

TEST(SharedAccelerator, LutUnionCoversBothModels) {
  // MNIST needs exp+recip (softmax); ANN-0 needs tanh — the shared
  // design must carry all three.
  const Network mnist = BuildZooModel(ZooModel::kMnist);
  const Network ann = BuildZooModel(ZooModel::kAnn0Fft);
  const SharedAccelerator shared =
      GenerateSharedAccelerator({&mnist, &ann}, DbConstraint());
  std::set<LutFunction> fns;
  for (const ApproxLutSpec& spec : shared.designs[0].lut_specs)
    fns.insert(spec.function);
  EXPECT_TRUE(fns.count(LutFunction::kExp));
  EXPECT_TRUE(fns.count(LutFunction::kRecip));
  EXPECT_TRUE(fns.count(LutFunction::kTanh));
}

TEST(SharedAccelerator, BothModelsRunFunctionally) {
  const Network mnist = BuildZooModel(ZooModel::kMnist);
  const Network ann = BuildZooModel(ZooModel::kAnn0Fft);
  const SharedAccelerator shared =
      GenerateSharedAccelerator({&mnist, &ann}, DbConstraint());

  Rng rng(5);
  const WeightStore mnist_w = WeightStore::CreateRandom(mnist, rng);
  const WeightStore ann_w = WeightStore::CreateRandom(ann, rng);

  FunctionalSimulator mnist_sim(mnist, shared.designs[0], mnist_w);
  FunctionalSimulator ann_sim(ann, shared.designs[1], ann_w);
  Executor mnist_exec(mnist, mnist_w);
  Executor ann_exec(ann, ann_w);

  Tensor img(Shape{1, 12, 12});
  img.FillUniform(rng, 0.0f, 1.0f);
  EXPECT_LT(MaxAbsDiff(mnist_exec.ForwardOutput(img),
                       mnist_sim.Run(img)),
            0.1);
  Tensor x(Shape{1, 1, 1}, {0.4f});
  EXPECT_LT(MaxAbsDiff(ann_exec.ForwardOutput(x), ann_sim.Run(x)), 0.05);

  // And both have timing on the same datapath.
  const PerfResult mnist_perf =
      SimulatePerformance(mnist, shared.designs[0]);
  const PerfResult ann_perf = SimulatePerformance(ann, shared.designs[1]);
  EXPECT_GT(mnist_perf.total_cycles, ann_perf.total_cycles);
}

TEST(SharedAccelerator, EmptyListRejected) {
  EXPECT_THROW(GenerateSharedAccelerator({}, DbConstraint()), Error);
}

}  // namespace
}  // namespace db
