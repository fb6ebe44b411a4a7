// Approximate computing with DeepBurning: the AxBench-style jpeg
// workload (paper §4.1, ANN-1).
//
// A 4-layer MLP is trained to mimic the lossy JPEG block transform; the
// trained model is burnt into an accelerator, and both the float CPU run
// and the fixed-point accelerator run are scored against the golden
// software codec with the paper's Eq. (1).
#include <cstdio>

#include "baseline/accuracy.h"
#include "baseline/cpu_model.h"
#include "core/generator.h"
#include "models/trained.h"
#include "nn/executor.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

int main() {
  using namespace db;

  std::printf("training ANN-1 (jpeg approximator)...\n");
  const TrainedModel model = TrainZooAnn(ZooModel::kAnn1Jpeg, 42);

  const AcceleratorDesign design =
      GenerateAccelerator(model.net, DbConstraint());
  std::printf("generated accelerator: %d MAC lanes, %lld fold steps, "
              "%lld LUTs\n\n",
              design.config.TotalLanes(),
              static_cast<long long>(design.fold_plan.TotalSegments()),
              static_cast<long long>(design.resources.total.lut));

  Executor exec(model.net, model.weights);
  FunctionalSimulator sim(model.net, design, model.weights);

  const double cpu_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return exec.ForwardOutput(t); });
  const double accel_acc = ScoreModelPct(
      model, [&](const Tensor& t) { return sim.Run(t); });
  std::printf("Eq.(1) accuracy vs golden JPEG codec:\n");
  std::printf("  software NN on CPU      : %.2f%%\n", cpu_acc);
  std::printf("  DeepBurning accelerator : %.2f%%\n\n", accel_acc);

  // One example block end to end.
  const TrainSample& sample = model.test_set.front();
  const Tensor accel_out = sim.Run(sample.input);
  std::printf("%-8s %10s %10s %10s\n", "sample", "golden", "cpu_nn",
              "accel");
  const Tensor cpu_out = exec.ForwardOutput(sample.input);
  for (std::int64_t i = 0; i < sample.target.size(); ++i)
    std::printf("x[%lld]    %10.4f %10.4f %10.4f\n",
                static_cast<long long>(i), sample.target[i], cpu_out[i],
                accel_out[i]);

  const CpuRunEstimate cpu = EstimateCpuRun(model.net);
  const PerfResult perf = SimulatePerformance(model.net, design);
  std::printf("\nper-invocation: accelerator %.2f us vs CPU %.2f us "
              "(%.1fx)\n",
              perf.TotalSeconds() * 1e6, cpu.seconds * 1e6,
              cpu.seconds / perf.TotalSeconds());
  return 0;
}
