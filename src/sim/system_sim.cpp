#include "sim/system_sim.h"

#include "common/error.h"

namespace db {

WeightStore DecodeWeights(const MemoryImage& image, const Network& net,
                          const AcceleratorDesign& design) {
  const FixedFormat& fmt = design.config.format;
  const int elem_bytes = static_cast<int>(design.config.ElementBytes());
  WeightStore store = WeightStore::CreateFor(net);
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (!store.Has(layer->name())) continue;
    const WeightRegionLayout layout = LayoutWeightRegion(*layer, design);
    LayerParams& params = store.at(layer->name());
    const auto decode = [&](Tensor& t, std::int64_t addr) {
      for (std::int64_t i = 0; i < t.size(); ++i, addr += elem_bytes)
        t[i] = static_cast<float>(
            fmt.Dequantize(image.ReadElem(addr, elem_bytes)));
    };
    decode(params.weights, layout.weights_addr);
    decode(params.bias, layout.bias_addr);
    decode(params.recurrent, layout.recurrent_addr);
  }
  return store;
}

SystemContext::SystemContext(const Network& net,
                             const AcceleratorDesign& design,
                             const MemoryImage& image)
    : net_(net), design_(design), image_bytes_(image.data()),
      sim_(net, design, image),
      cold_perf_(SimulatePerformance(net, design)),
      warm_perf_(SimulatePerformance(
          net, design, PerfOptions{.weights_resident = true})) {
  // Precompute the input/output blob regions and tile permutations:
  // they depend only on (net, design), and rebuilding them per request
  // dominated the serve hot path for small models.
  const IrLayer& in_layer = net.layer(net.input_ids().front());
  const IrLayer& out_layer = net.OutputLayer();
  in_region_ = &design.memory_map.Blob(in_layer.name());
  out_region_ = &design.memory_map.Blob(out_layer.name());
  in_order_ = BlobTileOrder(net, design, in_layer.id);
  out_order_ = BlobTileOrder(net, design, out_layer.id);
}

SystemRunResult SystemContext::Run(MemoryImage& image, const Tensor& input,
                                   bool warm) const {
  const Tensor* const in = &input;
  return {std::move(RunBatch(image, {&in, 1}).front()), perf(warm)};
}

std::vector<Tensor> SystemContext::RunBatch(
    MemoryImage& image, std::span<const Tensor* const> inputs) const {
  DB_CHECK_MSG(image.data() == image_bytes_,
               "SystemContext::Run was handed an image other than the "
               "one whose weights it reads");
  std::vector<Tensor> outputs = sim_.RunBatch(inputs);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    // Host writes the input blob into DRAM in the compiler's tile order;
    // the accelerator writes the output blob; the host reads it back.
    StoreBlob(image, design_, *in_region_, in_order_, *inputs[b]);
    StoreBlob(image, design_, *out_region_, out_order_, outputs[b]);
    outputs[b] = ExtractBlob(image, design_, *out_region_, out_order_,
                             net_.OutputLayer().output_shape);
  }
  return outputs;
}

std::vector<SystemReplica> ReplicateSystem(const Network& net,
                                           const AcceleratorDesign& design,
                                           MemoryImage& provisioned,
                                           int count) {
  DB_CHECK_MSG(count >= 1, "a system needs at least one replica");
  provisioned.Seal();
  std::vector<SystemReplica> replicas;
  replicas.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SystemReplica replica{provisioned, nullptr};
    // Each context reads its replica's own mapping, never a sibling's.
    // Moving the replica moves the mapping with it, so the context's
    // views stay valid.
    replica.context =
        std::make_unique<SystemContext>(net, design, replica.image);
    replicas.push_back(std::move(replica));
  }
  return replicas;
}

}  // namespace db
