#include "nn/weights.h"

#include <cmath>

#include "common/error.h"

namespace db {
namespace {

double FanSum(const IrLayer& layer) {
  const double fan_in =
      static_cast<double>(layer.input_shapes.front().NumElements());
  const double fan_out =
      static_cast<double>(layer.output_shape.NumElements());
  return fan_in + fan_out;
}

}  // namespace

ParamCounts ParamCountsFor(const IrLayer& layer) {
  const ParamShapes shapes = ParamShapesFor(layer);
  const auto count = [](const Shape& s) {
    return s.rank() > 0 ? s.NumElements() : 0;
  };
  return {count(shapes.weights), count(shapes.bias),
          count(shapes.recurrent)};
}

WeightStore WeightStore::CreateFor(const Network& net) {
  WeightStore store;
  for (const IrLayer* layer : net.ComputeLayers()) {
    const ParamShapes shapes = ParamShapesFor(*layer);
    if (shapes.weights.rank() == 0) continue;
    LayerParams params;
    params.weights = Tensor(shapes.weights);
    if (shapes.bias.NumElements() > 0 && shapes.bias.rank() > 0)
      params.bias = Tensor(shapes.bias);
    if (shapes.recurrent.rank() > 0)
      params.recurrent = Tensor(shapes.recurrent);
    store.params_.emplace(layer->name(), std::move(params));
  }
  return store;
}

WeightStore WeightStore::CreateRandomHe(const Network& net, Rng& rng) {
  WeightStore store = CreateFor(net);
  for (const IrLayer* layer : net.ComputeLayers()) {
    auto it = store.params_.find(layer->name());
    if (it == store.params_.end()) continue;
    // Receptive-field fan-in: conv uses k*k*Cin, everything else the
    // flattened input size.
    double fan_in =
        static_cast<double>(layer->input_shapes.front().NumElements());
    if (layer->kind() == LayerKind::kConvolution) {
      const ConvolutionParams& p = *layer->def.conv;
      fan_in = static_cast<double>(
          p.kernel_size * p.kernel_size *
          (layer->input_shapes.front().channels / p.group));
    }
    const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
    it->second.weights.FillGaussian(rng, 0.0f, stddev);
    if (it->second.recurrent.size() > 0)
      it->second.recurrent.FillGaussian(rng, 0.0f, stddev);
  }
  return store;
}

WeightStore WeightStore::CreateRandom(const Network& net, Rng& rng) {
  WeightStore store = CreateFor(net);
  for (const IrLayer* layer : net.ComputeLayers()) {
    auto it = store.params_.find(layer->name());
    if (it == store.params_.end()) continue;
    const double bound = std::sqrt(6.0 / FanSum(*layer));
    it->second.weights.FillUniform(rng, static_cast<float>(-bound),
                                   static_cast<float>(bound));
    if (it->second.recurrent.size() > 0)
      it->second.recurrent.FillUniform(rng, static_cast<float>(-bound),
                                       static_cast<float>(bound));
    // biases stay zero
  }
  return store;
}

LayerParams& WeightStore::at(const std::string& layer_name) {
  auto it = params_.find(layer_name);
  if (it == params_.end())
    DB_THROW("no parameters stored for layer '" << layer_name << "'");
  return it->second;
}

const LayerParams& WeightStore::at(const std::string& layer_name) const {
  auto it = params_.find(layer_name);
  if (it == params_.end())
    DB_THROW("no parameters stored for layer '" << layer_name << "'");
  return it->second;
}

std::int64_t WeightStore::TotalCount() const {
  std::int64_t n = 0;
  for (const auto& [name, params] : params_) n += params.TotalCount();
  return n;
}

}  // namespace db
