#include "sim/host_runtime.h"

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

}  // namespace db
