// Trained-parameter storage for a network.
//
// The paper trains models in Caffe/Matlab and pre-loads the weights into
// board DRAM; here the WeightStore is the in-memory equivalent that both
// the float reference executor and the fixed-point functional simulator
// read, and that the compiler lays out into the accelerator's memory
// image.
#pragma once

#include <map>
#include <string>

#include "common/rng.h"
#include "graph/network.h"
#include "tensor/tensor.h"

namespace db {

/// Parameters of one layer.  Which tensors are populated depends on kind:
///   convolution  : weights {outC, inC, k, k}, bias {outC}
///   inner product: weights {outN, inN},       bias {outN}
///   recurrent    : weights {outN, inN}, recurrent {outN, outN}, bias {outN}
///   associative  : weights {outN, num_cells}  (the CMAC cell table)
struct LayerParams {
  Tensor weights;
  Tensor bias;
  Tensor recurrent;

  std::int64_t TotalCount() const {
    return weights.size() + bias.size() + recurrent.size();
  }
};

/// Element counts of one layer's parameter tensors, in the shapes
/// documented on LayerParams; all zero for a layer without parameters.
struct ParamCounts {
  std::int64_t weights = 0;
  std::int64_t bias = 0;
  std::int64_t recurrent = 0;

  std::int64_t Total() const { return weights + bias + recurrent; }
};
ParamCounts ParamCountsFor(const IrLayer& layer);

/// All trainable parameters of a network, keyed by layer name.
class WeightStore {
 public:
  /// Allocate correctly-shaped zero tensors for every parameterised layer.
  static WeightStore CreateFor(const Network& net);

  /// Allocate and Xavier-initialise (uniform in +-sqrt(6/(fan_in+fan_out))).
  static WeightStore CreateRandom(const Network& net, Rng& rng);

  /// Allocate and He-initialise (Gaussian with std sqrt(2/fan_in), where
  /// fan_in is the receptive-field size).  Keeps activation magnitudes
  /// O(1) through deep ReLU stacks — required when a random-weight deep
  /// model must produce fixed-point-representable activations (the
  /// fidelity-evaluated ImageNet models).
  static WeightStore CreateRandomHe(const Network& net, Rng& rng);

  bool Has(const std::string& layer_name) const {
    return params_.count(layer_name) > 0;
  }
  LayerParams& at(const std::string& layer_name);
  const LayerParams& at(const std::string& layer_name) const;

  const std::map<std::string, LayerParams>& all() const { return params_; }
  std::map<std::string, LayerParams>& all() { return params_; }

  /// Total number of scalar parameters (matches LayerStats weight counts).
  std::int64_t TotalCount() const;

 private:
  std::map<std::string, LayerParams> params_;
};

}  // namespace db
