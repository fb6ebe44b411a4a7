#include "frontend/network_def.h"

#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"

namespace db {
namespace {

ConnectDef ParseConnect(const PtMessage& msg, int line) {
  ConnectDef c;
  c.name = msg.GetString("name", "");
  const std::string dir = msg.GetEnum("direction", "forward");
  if (dir == "forward") {
    c.direction = ConnectDef::Direction::kForward;
  } else if (dir == "recurrent") {
    c.direction = ConnectDef::Direction::kRecurrent;
  } else {
    throw ParseError(line, "unknown connect direction '" + dir + "'");
  }
  const std::string pat = msg.GetEnum("type", "full");
  if (pat == "full") {
    c.pattern = ConnectDef::Pattern::kFull;
  } else if (pat == "full_per_channel") {
    c.pattern = ConnectDef::Pattern::kFullPerChannel;
  } else if (pat == "file_specified") {
    c.pattern = ConnectDef::Pattern::kFileSpecified;
    c.file = msg.GetString("file", "");
  } else {
    throw ParseError(line, "unknown connect type '" + pat + "'");
  }
  return c;
}

/// Caffe uses both `param { ... }` (old style, Fig. 4) and
/// `<layer>_param { ... }`; accept either, preferring the specific one.
const PtMessage* FindParamBlock(const PtMessage& layer,
                                const std::string& specific) {
  if (const PtField* f = layer.Find(specific); f && f->is_message())
    return f->message.get();
  if (const PtField* f = layer.Find("param"); f && f->is_message())
    return f->message.get();
  return nullptr;
}

/// The largest kernel, stride, pad or input extent.  With every term
/// below 2^31, shape inference's padded extents (in + 2 * pad - kernel)
/// stay far inside int64.
constexpr std::int64_t kMaxExtent = std::numeric_limits<std::int32_t>::max();

void ParseLayerParams(const PtMessage& msg, LayerDef& layer) {
  switch (layer.kind) {
    case LayerKind::kConvolution: {
      ConvolutionParams p;
      if (const PtMessage* block = FindParamBlock(msg, "convolution_param")) {
        p.num_output = block->GetInt("num_output", 0);
        p.kernel_size = block->GetInt("kernel_size", 1, 1, kMaxExtent);
        p.stride = block->GetInt("stride", 1, 1, kMaxExtent);
        p.pad = block->GetInt("pad", 0, 0, kMaxExtent);
        p.group = block->GetInt("group", 1);
        p.bias = block->GetBool("bias_term", true);
      }
      if (p.num_output <= 0)
        throw ParseError(layer.line, "convolution layer '" + layer.name +
                                         "' needs num_output > 0");
      if (p.group <= 0 || p.num_output % p.group != 0)
        throw ParseError(layer.line, "convolution layer '" + layer.name +
                                         "' has invalid group count");
      layer.conv = p;
      break;
    }
    case LayerKind::kPooling: {
      PoolingParams p;
      if (const PtMessage* block = FindParamBlock(msg, "pooling_param")) {
        const std::string method = block->GetEnum("pool", "max");
        if (method == "max") {
          p.method = PoolMethod::kMax;
        } else if (method == "ave" || method == "average") {
          p.method = PoolMethod::kAverage;
        } else {
          throw ParseError(layer.line, "unknown pool method '" + method +
                                           "'");
        }
        p.kernel_size = block->GetInt("kernel_size", 2, 1, kMaxExtent);
        p.stride = block->GetInt("stride", p.kernel_size, 1, kMaxExtent);
        p.pad = block->GetInt("pad", 0, 0, kMaxExtent);
      }
      layer.pool = p;
      break;
    }
    case LayerKind::kInnerProduct: {
      InnerProductParams p;
      if (const PtMessage* block =
              FindParamBlock(msg, "inner_product_param")) {
        p.num_output = block->GetInt("num_output", 0);
        p.bias = block->GetBool("bias_term", true);
      }
      if (p.num_output <= 0)
        throw ParseError(layer.line, "inner_product layer '" + layer.name +
                                         "' needs num_output > 0");
      layer.fc = p;
      break;
    }
    case LayerKind::kLrn: {
      LrnParams p;
      if (const PtMessage* block = FindParamBlock(msg, "lrn_param")) {
        p.local_size = block->GetInt("local_size", 5);
        p.alpha = block->GetDouble("alpha", 1e-4);
        p.beta = block->GetDouble("beta", 0.75);
      }
      if (p.local_size <= 0 || p.local_size % 2 == 0)
        throw ParseError(layer.line,
                         "lrn local_size must be a positive odd number");
      layer.lrn = p;
      break;
    }
    case LayerKind::kDropout: {
      DropoutParams p;
      if (const PtMessage* block = FindParamBlock(msg, "dropout_param"))
        p.ratio = block->GetDouble("dropout_ratio", 0.5);
      if (p.ratio < 0.0 || p.ratio >= 1.0)
        throw ParseError(layer.line, "dropout_ratio must be in [0,1)");
      layer.dropout = p;
      break;
    }
    case LayerKind::kRecurrent: {
      RecurrentParams p;
      if (const PtMessage* block = FindParamBlock(msg, "recurrent_param")) {
        p.num_output = block->GetInt("num_output", 0);
        p.time_steps = block->GetInt("time_steps", 1);
        const std::string act = block->GetEnum("activation", "tanh");
        if (act == "tanh") {
          p.activation = RecurrentActivation::kTanh;
        } else if (act == "sigmoid") {
          p.activation = RecurrentActivation::kSigmoid;
        } else if (act == "none" || act == "linear") {
          p.activation = RecurrentActivation::kNone;
        } else {
          throw ParseError(layer.line,
                           "unknown recurrent activation '" + act + "'");
        }
      }
      if (p.num_output <= 0)
        throw ParseError(layer.line, "recurrent layer '" + layer.name +
                                         "' needs num_output > 0");
      if (p.time_steps <= 0)
        throw ParseError(layer.line, "recurrent time_steps must be >= 1");
      layer.recurrent = p;
      break;
    }
    case LayerKind::kLstm: {
      LstmParams p;
      if (const PtMessage* block = FindParamBlock(msg, "lstm_param")) {
        p.num_output = block->GetInt("num_output", 0);
        p.time_steps = block->GetInt("time_steps", 1);
      }
      if (p.num_output <= 0)
        throw ParseError(layer.line, "lstm layer '" + layer.name +
                                         "' needs num_output > 0");
      if (p.time_steps <= 0)
        throw ParseError(layer.line, "lstm time_steps must be >= 1");
      layer.lstm = p;
      break;
    }
    case LayerKind::kAssociative: {
      AssociativeParams p;
      if (const PtMessage* block =
              FindParamBlock(msg, "associative_param")) {
        p.num_cells = block->GetInt("num_cells", 32);
        p.generalization = block->GetInt("generalization", 4);
        p.num_output = block->GetInt("num_output", 1);
      }
      if (p.num_cells <= 0 || p.generalization <= 0 ||
          p.generalization > p.num_cells || p.num_output <= 0)
        throw ParseError(layer.line, "associative layer '" + layer.name +
                                         "' has invalid parameters");
      layer.associative = p;
      break;
    }
    case LayerKind::kClassifier: {
      ClassifierParams p;
      if (const PtMessage* block =
              FindParamBlock(msg, "classifier_param"))
        p.top_k = block->GetInt("top_k", 1);
      if (p.top_k <= 0)
        throw ParseError(layer.line, "classifier top_k must be >= 1");
      layer.classifier = p;
      break;
    }
    case LayerKind::kInput:
    case LayerKind::kRelu:
    case LayerKind::kSigmoid:
    case LayerKind::kTanh:
    case LayerKind::kSoftmax:
    case LayerKind::kConcat:
      break;  // no parameters
  }
}

}  // namespace

std::string LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput: return "INPUT";
    case LayerKind::kConvolution: return "CONVOLUTION";
    case LayerKind::kPooling: return "POOLING";
    case LayerKind::kInnerProduct: return "INNER_PRODUCT";
    case LayerKind::kRelu: return "RELU";
    case LayerKind::kSigmoid: return "SIGMOID";
    case LayerKind::kTanh: return "TANH";
    case LayerKind::kLrn: return "LRN";
    case LayerKind::kDropout: return "DROPOUT";
    case LayerKind::kSoftmax: return "SOFTMAX";
    case LayerKind::kRecurrent: return "RECURRENT";
    case LayerKind::kLstm: return "LSTM";
    case LayerKind::kAssociative: return "ASSOCIATIVE";
    case LayerKind::kConcat: return "CONCAT";
    case LayerKind::kClassifier: return "CLASSIFIER";
  }
  return "?";
}

LayerKind ParseLayerKind(const std::string& word, int line) {
  const std::string w = ToLower(word);
  if (w == "input") return LayerKind::kInput;
  if (w == "convolution" || w == "conv") return LayerKind::kConvolution;
  if (w == "pooling" || w == "pool") return LayerKind::kPooling;
  if (w == "inner_product" || w == "innerproduct" || w == "fc" ||
      w == "full_connection")
    return LayerKind::kInnerProduct;
  if (w == "relu") return LayerKind::kRelu;
  if (w == "sigmoid") return LayerKind::kSigmoid;
  if (w == "tanh") return LayerKind::kTanh;
  if (w == "lrn") return LayerKind::kLrn;
  if (w == "dropout") return LayerKind::kDropout;
  if (w == "softmax") return LayerKind::kSoftmax;
  if (w == "recurrent" || w == "rnn") return LayerKind::kRecurrent;
  if (w == "lstm") return LayerKind::kLstm;
  if (w == "associative" || w == "cmac") return LayerKind::kAssociative;
  if (w == "concat" || w == "inception") return LayerKind::kConcat;
  if (w == "classifier" || w == "argmax") return LayerKind::kClassifier;
  throw ParseError(line, "unknown layer type '" + word + "'");
}

NetworkDef ParseNetworkDef(const std::string& prototxt_text) {
  const PtMessage root = ParsePrototxt(prototxt_text);
  NetworkDef net;
  net.name = root.GetString("name", "net");

  // Old-style Caffe inputs: `input: "data"` + four `input_dim:` values
  // (batch, channels, height, width); batch is ignored (the accelerator
  // processes one input set per propagation round).
  const auto input_names = root.All("input");
  const auto input_dims = root.All("input_dim");
  if (!input_names.empty()) {
    if (input_dims.size() != 4 * input_names.size())
      DB_THROW("expected 4 input_dim entries per input, got "
               << input_dims.size());
    for (std::size_t i = 0; i < input_names.size(); ++i) {
      InputDef in;
      in.name = input_names[i]->scalar ? input_names[i]->scalar->text : "";
      auto dim = [&](std::size_t j) {
        return ParseIntAt(*input_dims[4 * i + j], 1, kMaxExtent);
      };
      in.channels = dim(1);
      in.height = dim(2);
      in.width = dim(3);
      net.inputs.push_back(in);
    }
  }

  for (const PtField* f : root.All("layers")) {
    if (!f->is_message())
      throw ParseError(f->line, "'layers' must be a block");
    const PtMessage& msg = *f->message;
    LayerDef layer;
    layer.line = f->line;
    layer.name = msg.GetString("name", "");
    if (layer.name.empty())
      throw ParseError(f->line, "layer is missing a name");
    const PtField* type = msg.Find("type");
    if (type == nullptr || !type->scalar)
      throw ParseError(f->line, "layer '" + layer.name +
                                    "' is missing a type");
    layer.kind = ParseLayerKind(type->scalar->text, type->line);
    for (const PtField* b : msg.All("bottom"))
      if (b->scalar) layer.bottoms.push_back(b->scalar->text);
    for (const PtField* t : msg.All("top"))
      if (t->scalar) layer.tops.push_back(t->scalar->text);
    ParseLayerParams(msg, layer);
    for (const PtField* c : msg.All("connect")) {
      if (!c->is_message())
        throw ParseError(c->line, "'connect' must be a block");
      layer.connects.push_back(ParseConnect(*c->message, c->line));
    }
    net.layers.push_back(std::move(layer));
  }

  if (net.layers.empty()) DB_THROW("network has no layers");
  return net;
}

namespace {

void EmitConnect(std::ostringstream& os, const ConnectDef& c) {
  os << "  connect {\n";
  os << "    name: \"" << c.name << "\"\n";
  os << "    direction: "
     << (c.direction == ConnectDef::Direction::kForward ? "forward"
                                                        : "recurrent")
     << "\n";
  switch (c.pattern) {
    case ConnectDef::Pattern::kFull:
      os << "    type: full\n";
      break;
    case ConnectDef::Pattern::kFullPerChannel:
      os << "    type: full_per_channel\n";
      break;
    case ConnectDef::Pattern::kFileSpecified:
      os << "    type: file_specified\n";
      if (!c.file.empty()) os << "    file: \"" << c.file << "\"\n";
      break;
  }
  os << "  }\n";
}

}  // namespace

std::string NetworkDefToPrototxt(const NetworkDef& net) {
  std::ostringstream os;
  os << "name: \"" << net.name << "\"\n";
  for (const InputDef& in : net.inputs) {
    os << "input: \"" << in.name << "\"\n";
    os << "input_dim: 1\n";
    os << "input_dim: " << in.channels << "\n";
    os << "input_dim: " << in.height << "\n";
    os << "input_dim: " << in.width << "\n";
  }
  for (const LayerDef& layer : net.layers) {
    os << "layers {\n";
    os << "  name: \"" << layer.name << "\"\n";
    os << "  type: " << LayerKindName(layer.kind) << "\n";
    for (const std::string& b : layer.bottoms)
      os << "  bottom: \"" << b << "\"\n";
    for (const std::string& t : layer.tops)
      os << "  top: \"" << t << "\"\n";
    if (layer.conv) {
      os << "  convolution_param {\n";
      os << "    num_output: " << layer.conv->num_output << "\n";
      os << "    kernel_size: " << layer.conv->kernel_size << "\n";
      os << "    stride: " << layer.conv->stride << "\n";
      if (layer.conv->pad != 0) os << "    pad: " << layer.conv->pad << "\n";
      if (layer.conv->group != 1)
        os << "    group: " << layer.conv->group << "\n";
      if (!layer.conv->bias) os << "    bias_term: false\n";
      os << "  }\n";
    }
    if (layer.pool) {
      os << "  pooling_param {\n";
      os << "    pool: "
         << (layer.pool->method == PoolMethod::kMax ? "MAX" : "AVE") << "\n";
      os << "    kernel_size: " << layer.pool->kernel_size << "\n";
      os << "    stride: " << layer.pool->stride << "\n";
      if (layer.pool->pad != 0) os << "    pad: " << layer.pool->pad << "\n";
      os << "  }\n";
    }
    if (layer.fc) {
      os << "  inner_product_param {\n";
      os << "    num_output: " << layer.fc->num_output << "\n";
      if (!layer.fc->bias) os << "    bias_term: false\n";
      os << "  }\n";
    }
    if (layer.lrn) {
      os << "  lrn_param {\n";
      os << "    local_size: " << layer.lrn->local_size << "\n";
      os << "    alpha: " << FormatExactDouble(layer.lrn->alpha) << "\n";
      os << "    beta: " << FormatExactDouble(layer.lrn->beta) << "\n";
      os << "  }\n";
    }
    if (layer.dropout) {
      os << "  dropout_param {\n";
      os << "    dropout_ratio: " << FormatExactDouble(layer.dropout->ratio)
         << "\n";
      os << "  }\n";
    }
    if (layer.recurrent) {
      os << "  recurrent_param {\n";
      os << "    num_output: " << layer.recurrent->num_output << "\n";
      os << "    time_steps: " << layer.recurrent->time_steps << "\n";
      switch (layer.recurrent->activation) {
        case RecurrentActivation::kTanh:
          os << "    activation: TANH\n";
          break;
        case RecurrentActivation::kSigmoid:
          os << "    activation: SIGMOID\n";
          break;
        case RecurrentActivation::kNone:
          os << "    activation: NONE\n";
          break;
      }
      os << "  }\n";
    }
    if (layer.lstm) {
      os << "  lstm_param {\n";
      os << "    num_output: " << layer.lstm->num_output << "\n";
      os << "    time_steps: " << layer.lstm->time_steps << "\n";
      os << "  }\n";
    }
    if (layer.associative) {
      os << "  associative_param {\n";
      os << "    num_cells: " << layer.associative->num_cells << "\n";
      os << "    generalization: " << layer.associative->generalization
         << "\n";
      os << "    num_output: " << layer.associative->num_output << "\n";
      os << "  }\n";
    }
    if (layer.classifier) {
      os << "  classifier_param {\n";
      os << "    top_k: " << layer.classifier->top_k << "\n";
      os << "  }\n";
    }
    for (const ConnectDef& c : layer.connects) EmitConnect(os, c);
    os << "}\n";
  }
  return os.str();
}

std::uint64_t NetworkDefDigest(const NetworkDef& net) {
  return Fnv1a64(NetworkDefToPrototxt(net));
}

}  // namespace db
