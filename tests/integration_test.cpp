// End-to-end integration tests: train -> generate -> simulate -> score,
// mirroring the paper's evaluation flow on the small models.
#include <gtest/gtest.h>

#include "baseline/accuracy.h"
#include "core/generator.h"
#include "hwlib/device.h"
#include "models/trained.h"
#include "nn/executor.h"
#include "sim/host_runtime.h"
#include "sim/power_model.h"

namespace db {
namespace {

TEST(Integration, Ann0TrainGenerateSimulate) {
  const TrainedModel model =
      TrainZooAnn(ZooModel::kAnn0Fft, 42, /*train_samples=*/300,
                  /*epochs=*/30);
  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  Executor exec(model.net, model.weights);
  FunctionalSimulator sim(model.net, design, model.weights);

  const double cpu_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return exec.ForwardOutput(t); });
  const double accel_acc =
      ScoreModelPct(model, [&](const Tensor& t) { return sim.Run(t); });
  // The trained approximator should be good, and the accelerator within
  // ~1.5% of the CPU run (Fig. 10's claim).
  EXPECT_GT(cpu_acc, 90.0);
  EXPECT_NEAR(accel_acc, cpu_acc, 1.5);
}

TEST(Integration, MnistShortTraining) {
  const TrainedModel model =
      TrainZooMnist(7, /*samples_per_class=*/12, /*epochs=*/6);
  Executor exec(model.net, model.weights);
  const double cpu_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return exec.ForwardOutput(t); });
  EXPECT_GT(cpu_acc, 70.0);  // short training, easy glyphs

  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  FunctionalSimulator sim(model.net, design, model.weights);
  const double accel_acc =
      ScoreModelPct(model, [&](const Tensor& t) { return sim.Run(t); });
  EXPECT_NEAR(accel_acc, cpu_acc, 10.0);  // classification is discrete
}

TEST(Integration, CmacArmControl) {
  const TrainedModel model = BuildZooCmac(5, /*train_samples=*/1500);
  Executor exec(model.net, model.weights);
  const double cpu_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return exec.ForwardOutput(t); });
  EXPECT_GT(cpu_acc, 85.0);

  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  FunctionalSimulator sim(model.net, design, model.weights);
  const double accel_acc =
      ScoreModelPct(model, [&](const Tensor& t) { return sim.Run(t); });
  EXPECT_NEAR(accel_acc, cpu_acc, 3.0);
}

TEST(Integration, HopfieldDecodesValidTours) {
  const TrainedModel model = BuildZooHopfield(11);
  Executor exec(model.net, model.weights);
  for (const TrainSample& s : model.test_set) {
    const Tensor acts = exec.ForwardOutput(s.input);
    const std::vector<int> tour =
        DecodeTourFromActivations(acts, kHopfieldCities);
    std::set<int> cities(tour.begin(), tour.end());
    EXPECT_EQ(cities.size(), static_cast<std::size_t>(kHopfieldCities));
  }
  const double acc = ScoreModelPct(model, [&](const Tensor& t) {
    return exec.ForwardOutput(t);
  });
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 100.0);
}

TEST(Integration, SimulatorFacadeProducesAllAspects) {
  const TrainedModel model =
      TrainZooAnn(ZooModel::kAnn2Kmeans, 3, 200, 20);
  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  MemoryImage image = BuildHostImage(model.net, design, model.weights);
  const SystemContext context(model.net, design, image);
  const SystemRunResult result =
      context.Run(image, model.test_set.front().input);
  EXPECT_EQ(result.output.size(), 2);
  EXPECT_GT(result.perf.total_cycles, 0);
  EXPECT_GT(EstimateEnergy(design.resources.total, result.perf,
                           DeviceCatalog("zynq-7045"))
                .total_joules,
            0.0);
}

TEST(Integration, FidelityScoringForRandomWeightModel) {
  // Use the small Cifar network in fidelity mode to keep runtime down.
  TrainedModel model = RandomWeightModel(ZooModel::kCifar, 9, 2);
  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  Executor exec(model.net, model.weights);
  FunctionalSimulator sim(model.net, design, model.weights);
  const double fidelity = ScoreModelPct(
      model, [&](const Tensor& t) { return sim.Run(t); },
      [&](const Tensor& t) { return exec.ForwardOutput(t); });
  EXPECT_GT(fidelity, 95.0);  // fixed-point tracks float closely
}

TEST(Integration, BitWidthAffectsAccuracy) {
  const TrainedModel model =
      TrainZooAnn(ZooModel::kAnn0Fft, 13, 200, 20);
  Executor exec(model.net, model.weights);
  const double cpu_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return exec.ForwardOutput(t); });

  auto accel_acc = [&](int bits, int frac) {
    DesignConstraint c = DbConstraint();
    c.bit_width = bits;
    c.frac_bits = frac;
    const AcceleratorDesign design =
        GenerateAccelerator(model.net, c);
    FunctionalSimulator sim(model.net, design, model.weights);
    return ScoreModelPct(model,
                         [&](const Tensor& t) { return sim.Run(t); });
  };
  const double wide = accel_acc(16, 10);
  const double narrow = accel_acc(8, 4);
  EXPECT_GT(wide, narrow - 1e-9);   // more bits cannot hurt (statistically)
  EXPECT_NEAR(wide, cpu_acc, 2.0);
}

}  // namespace
}  // namespace db
