#include "sim/host_runtime.h"

#include "common/error.h"

namespace db {

MemoryImage BuildHostImage(const Network& net,
                           const AcceleratorDesign& design,
                           const WeightStore& weights) {
  // Provision the board: weights once, input region zeroed.
  const IrLayer& in_layer = net.layer(net.input_ids().front());
  const BlobShape& s = in_layer.output_shape;
  return BuildMemoryImage(
      net, design, weights,
      {{in_layer.name(), Tensor(Shape{s.channels, s.height, s.width})}});
}

HostRuntime::HostRuntime(const Network& net,
                         const AcceleratorDesign& design,
                         const WeightStore& weights,
                         std::string device_name)
    : design_(design),
      device_(DeviceCatalog(device_name)),
      image_(BuildHostImage(net, design, weights)),
      context_(net, design, image_) {}

HostInvocation HostRuntime::MakeInvocation(const SystemRunResult& run) {
  HostInvocation inv;
  inv.output = run.output;
  inv.cycles = run.perf.total_cycles;
  inv.seconds = run.perf.TotalSeconds();
  inv.joules = EstimateEnergy(design_.resources.total, run.perf, device_)
                   .total_joules;
  inv.status = run.status;
  ++stats_.invocations;
  stats_.total_seconds += inv.seconds;
  stats_.total_joules += inv.joules;
  stats_.total_dram_bytes += run.perf.total_dram_bytes;
  return inv;
}

HostInvocation HostRuntime::Infer(const Tensor& input) {
  return MakeInvocation(context_.Run(image_, input));
}

std::vector<HostInvocation> HostRuntime::InferBatch(
    std::span<const Tensor> inputs) {
  DB_CHECK_MSG(!inputs.empty(), "empty inference batch");
  std::vector<HostInvocation> results;
  results.reserve(inputs.size());

  // First image: cold run through the image.
  results.push_back(Infer(inputs.front()));

  // Remaining images reuse buffered weights where they fit.
  for (std::size_t i = 1; i < inputs.size(); ++i)
    results.push_back(MakeInvocation(
        context_.Run(image_, inputs[i], /*warm=*/true)));
  return results;
}

}  // namespace db
