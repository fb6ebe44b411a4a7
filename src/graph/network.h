// Shape-inferred network IR.
//
// A Network is the validated, connected form of a NetworkDef: every blob
// resolves to a producer, every layer knows its input and output feature
// map geometry, and the layers are in topological (propagation) order.
// This IR is what NN-Gen's generator and compiler consume.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "frontend/network_def.h"
#include "tensor/tensor.h"

namespace db {

/// Geometry of a feature-map blob: channels x height x width.
struct BlobShape {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;

  std::int64_t NumElements() const { return channels * height * width; }
  std::string ToString() const;
  bool operator==(const BlobShape&) const = default;
};

/// One node of the IR.  `def` keeps the full frontend parameters; the IR
/// adds resolved connectivity and inferred shapes.
struct IrLayer {
  int id = 0;
  LayerDef def;
  std::vector<int> input_ids;    // producer layer ids, in bottom order
  std::vector<BlobShape> input_shapes;
  BlobShape output_shape;
  bool in_place = false;  // activation/dropout applied onto its bottom blob

  const std::string& name() const { return def.name; }
  LayerKind kind() const { return def.kind; }
};

/// Shapes of one layer's parameter tensors, in the layouts documented on
/// LayerParams (nn/weights.h); a rank-0 shape means the layer has no
/// such tensor.
struct ParamShapes {
  Shape weights;
  Shape bias;
  Shape recurrent;
};
ParamShapes ParamShapesFor(const IrLayer& layer);

/// Validated, shape-inferred network.
class Network {
 public:
  /// Build from a parsed definition.  Throws db::Error on dangling blobs,
  /// duplicate layer names, cycles (other than declared recurrent
  /// connects), shape mismatches, or a blob or parameter tensor of more
  /// than 2^31 elements (the largest device DRAM at one byte each).
  static Network Build(const NetworkDef& def);

  const std::string& name() const { return name_; }
  const std::vector<IrLayer>& layers() const { return layers_; }
  const IrLayer& layer(int id) const;

  /// Layers excluding the synthetic input layers.
  std::vector<const IrLayer*> ComputeLayers() const;

  /// The final (sink) layer of the propagation — the network output.
  const IrLayer& OutputLayer() const;

  /// Ids of the synthetic input layers.
  const std::vector<int>& input_ids() const { return input_ids_; }

  /// True if any layer declares a recurrent connect (RNN/Hopfield/CMAC).
  bool HasRecurrence() const;

  /// Layer-kind presence map for the Table-1 decomposition report.
  std::map<LayerKind, int> KindHistogram() const;

  /// Human-readable summary (name, per-layer geometry) for logs/examples.
  std::string Summary() const;

 private:
  std::string name_;
  std::vector<IrLayer> layers_;
  std::vector<int> input_ids_;
};

/// Infer the output shape of one layer from its input shapes; exposed for
/// unit tests.  Throws db::Error for invalid geometry.
BlobShape InferOutputShape(const LayerDef& def,
                           const std::vector<BlobShape>& inputs);

}  // namespace db
