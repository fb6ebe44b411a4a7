// Quickstart: the "one-click" DeepBurning flow on a small MLP.
//
//   1. Describe the network in the Caffe-compatible script (Fig. 4).
//   2. Describe the resource constraint.
//   3. GenerateAccelerator -> RTL + control flow + data layout.
//   4. Run one inference on the simulated accelerator.
//
// Build & run:  ./example_quickstart
#include <cstdio>
#include <iostream>

#include "core/generator.h"
#include "hwlib/device.h"
#include "nn/executor.h"
#include "sim/host_runtime.h"
#include "sim/power_model.h"

int main() {
  using namespace db;

  // 1. The model descriptive script — a 2-hidden-layer MLP.
  const std::string model_script = R"(
name: "quickstart_mlp"
input: "data"
input_dim: 1
input_dim: 4
input_dim: 1
input_dim: 1
layers {
  name: "fc1"
  type: INNER_PRODUCT
  bottom: "data"
  top: "fc1"
  inner_product_param { num_output: 16 }
}
layers {
  name: "act1"
  type: SIGMOID
  bottom: "fc1"
  top: "act1"
}
layers {
  name: "fc2"
  type: INNER_PRODUCT
  bottom: "act1"
  top: "fc2"
  inner_product_param { num_output: 2 }
}
)";

  // 2. The designer's constraint: a low budget on the small Zynq.
  const std::string constraint_script = R"(
device: "zynq-7020"
budget: LOW
bit_width: 16
frac_bits: 8
frequency_mhz: 100
)";

  // 3. One call builds everything: datapath, folding, layout, AGU
  //    programs, coordinator schedule, RTL.
  const AcceleratorDesign design =
      GenerateFromScripts(model_script, constraint_script);
  std::cout << design.Report() << "\n";

  // The RTL is ready for synthesis:
  const std::string verilog = EmitVerilog(design.rtl);
  std::printf("generated %zu Verilog modules (%zu bytes); top: %s\n\n",
              design.rtl.modules.size(), verilog.size(),
              design.rtl.top.c_str());

  // 4. Run an inference on the simulated board.
  const Network net =
      Network::Build(ParseNetworkDef(model_script));
  Rng rng(1);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  MemoryImage image = BuildHostImage(net, design, weights);
  const SystemContext context(net, design, image);

  Tensor input(Shape{4, 1, 1}, {0.25f, -0.5f, 0.75f, 0.1f});
  const SystemRunResult result = context.Run(image, input);
  const double joules = EstimateEnergy(design.resources.total, result.perf,
                                       DeviceCatalog("zynq-7020"))
                            .total_joules;
  std::printf("accelerator output : [%f, %f]\n", result.output[0],
              result.output[1]);

  Executor reference(net, weights);
  const Tensor ref = reference.ForwardOutput(input);
  std::printf("float reference    : [%f, %f]\n", ref[0], ref[1]);
  std::printf("runtime: %lld cycles = %.2f us;  energy: %.3f uJ\n",
              static_cast<long long>(result.perf.total_cycles),
              result.perf.TotalSeconds() * 1e6, joules * 1e6);
  return 0;
}
