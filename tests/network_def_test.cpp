// Tests for the typed NetworkDef frontend (Fig. 4 dialect).
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "frontend/network_def.h"

namespace db {
namespace {

const char kFig4Script[] = R"(
name: "fig4"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 28
input_dim: 28
layers {
  name: "conv1"
  type: CONVOLUTION
  bottom: "data"
  top: "conv1"
  param {
    num_output: 20
    kernel_size: 5
    stride: 1
  }
  connect {
    name: "c2p1"
    direction: forward
    type: full_per_channel
  }
}
layers {
  name: "pool1"
  type: POOLING
  bottom: "conv1"
  top: "pool1"
  pooling_param {
    pool: MAX
    kernel_size: 2
    stride: 2
  }
}
layers {
  name: "relu1"
  type: RELU
  bottom: "pool1"
  top: "relu1"
  connect {
    name: "p2f2"
    direction: recurrent
    type: file_specified
  }
}
)";

TEST(NetworkDef, ParsesFig4Example) {
  const NetworkDef net = ParseNetworkDef(kFig4Script);
  EXPECT_EQ(net.name, "fig4");
  ASSERT_EQ(net.inputs.size(), 1u);
  EXPECT_EQ(net.inputs[0].channels, 1);
  EXPECT_EQ(net.inputs[0].height, 28);
  ASSERT_EQ(net.layers.size(), 3u);

  const LayerDef& conv = net.layers[0];
  EXPECT_EQ(conv.kind, LayerKind::kConvolution);
  ASSERT_TRUE(conv.conv.has_value());
  EXPECT_EQ(conv.conv->num_output, 20);
  EXPECT_EQ(conv.conv->kernel_size, 5);
  EXPECT_EQ(conv.conv->stride, 1);
  ASSERT_EQ(conv.connects.size(), 1u);
  EXPECT_EQ(conv.connects[0].direction, ConnectDef::Direction::kForward);
  EXPECT_EQ(conv.connects[0].pattern,
            ConnectDef::Pattern::kFullPerChannel);

  const LayerDef& pool = net.layers[1];
  ASSERT_TRUE(pool.pool.has_value());
  EXPECT_EQ(pool.pool->method, PoolMethod::kMax);
  EXPECT_EQ(pool.pool->kernel_size, 2);

  const LayerDef& relu = net.layers[2];
  EXPECT_EQ(relu.kind, LayerKind::kRelu);
  ASSERT_EQ(relu.connects.size(), 1u);
  EXPECT_EQ(relu.connects[0].direction,
            ConnectDef::Direction::kRecurrent);
  EXPECT_EQ(relu.connects[0].pattern,
            ConnectDef::Pattern::kFileSpecified);
}

TEST(NetworkDef, LayerKindParsing) {
  EXPECT_EQ(ParseLayerKind("CONVOLUTION", 1), LayerKind::kConvolution);
  EXPECT_EQ(ParseLayerKind("conv", 1), LayerKind::kConvolution);
  EXPECT_EQ(ParseLayerKind("INNER_PRODUCT", 1), LayerKind::kInnerProduct);
  EXPECT_EQ(ParseLayerKind("fc", 1), LayerKind::kInnerProduct);
  EXPECT_EQ(ParseLayerKind("RNN", 1), LayerKind::kRecurrent);
  EXPECT_EQ(ParseLayerKind("cmac", 1), LayerKind::kAssociative);
  EXPECT_THROW(ParseLayerKind("BOGUS", 7), ParseError);
}

TEST(NetworkDef, LayerKindNamesRoundTrip) {
  for (LayerKind k :
       {LayerKind::kConvolution, LayerKind::kPooling,
        LayerKind::kInnerProduct, LayerKind::kRelu, LayerKind::kSigmoid,
        LayerKind::kTanh, LayerKind::kLrn, LayerKind::kDropout,
        LayerKind::kSoftmax, LayerKind::kRecurrent,
        LayerKind::kAssociative, LayerKind::kConcat,
        LayerKind::kClassifier})
    EXPECT_EQ(ParseLayerKind(LayerKindName(k), 1), k);
}

TEST(NetworkDef, RoundTripSerialisation) {
  const NetworkDef original = ParseNetworkDef(kFig4Script);
  const std::string text = NetworkDefToPrototxt(original);
  const NetworkDef reparsed = ParseNetworkDef(text);
  ASSERT_EQ(reparsed.layers.size(), original.layers.size());
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.layers[0].conv->kernel_size,
            original.layers[0].conv->kernel_size);
  EXPECT_EQ(reparsed.layers[1].pool->stride,
            original.layers[1].pool->stride);
  EXPECT_EQ(reparsed.layers[2].connects[0].pattern,
            original.layers[2].connects[0].pattern);
}

TEST(NetworkDef, SpecificParamBlockPreferred) {
  const NetworkDef net = ParseNetworkDef(
      "input: \"d\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 4\n"
      "input_dim: 4\n"
      "layers { name: \"c\" type: CONVOLUTION bottom: \"d\" top: \"c\"\n"
      "  convolution_param { num_output: 3 kernel_size: 2 } }\n");
  EXPECT_EQ(net.layers[0].conv->num_output, 3);
}

TEST(NetworkDef, InvalidConvolutionRejected) {
  const std::string header =
      "input: \"d\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 4\n"
      "input_dim: 4\n";
  EXPECT_THROW(ParseNetworkDef(header +
                               "layers { name: \"c\" type: CONVOLUTION "
                               "bottom: \"d\" top: \"c\" }\n"),
               ParseError);  // missing num_output
  EXPECT_THROW(ParseNetworkDef(header +
                               "layers { name: \"c\" type: CONVOLUTION "
                               "bottom: \"d\" top: \"c\" param { "
                               "num_output: 2 stride: 0 } }\n"),
               ParseError);  // zero stride
  EXPECT_THROW(ParseNetworkDef(header +
                               "layers { name: \"c\" type: CONVOLUTION "
                               "bottom: \"d\" top: \"c\" param { "
                               "num_output: 2 stride: 1.5 } }\n"),
               Error);  // not an integer (was truncated to 1)
  EXPECT_THROW(ParseNetworkDef("input: \"d\"\ninput_dim: 1\ninput_dim: 1\n"
                               "input_dim: 4.5\ninput_dim: 4\n"
                               "layers { name: \"c\" type: CONVOLUTION "
                               "bottom: \"d\" top: \"c\" param { "
                               "num_output: 2 } }\n"),
               Error);  // fractional input_dim
}

TEST(NetworkDef, GeometryIsReadBelowTwoToThe31) {
  // Kernel, stride and input extents lie in [1, 2^31-1] and pad in
  // [0, 2^31-1], so shape inference's in + 2 * pad - kernel cannot
  // overflow.
  const auto parse = [](const std::string& dims, const std::string& layer) {
    return ParseNetworkDef("input: \"d\"\ninput_dim: 1\n" + dims + layer);
  };
  const std::string dims = "input_dim: 1\ninput_dim: 8\ninput_dim: 8\n";
  const auto conv = [](const std::string& geometry) {
    return "layers { name: \"c\" type: CONVOLUTION bottom: \"d\" "
           "top: \"c\" param { num_output: 2 " + geometry + " } }\n";
  };
  const auto pool = [](const std::string& geometry) {
    return "layers { name: \"p\" type: POOLING bottom: \"d\" "
           "top: \"p\" param { " + geometry + " } }\n";
  };
  EXPECT_NO_THROW(parse(dims, conv("kernel_size: 2147483647 "
                                   "stride: 2147483647 pad: 2147483647")));
  EXPECT_NO_THROW(parse(dims, pool("kernel_size: 2147483647 "
                                   "stride: 2147483647 pad: 2147483647")));
  for (const char* geometry :
       {"pad: 4611686018427387904", "pad: 2147483648", "pad: -1",
        "kernel_size: 9223372036854775807", "kernel_size: 2147483648",
        "kernel_size: 0", "stride: 2147483648", "stride: 0"}) {
    EXPECT_THROW(parse(dims, conv(geometry)), ParseError) << geometry;
    EXPECT_THROW(parse(dims, pool(geometry)), ParseError) << geometry;
  }
  for (const char* bad_dims :
       {"input_dim: 1\ninput_dim: 8\ninput_dim: 2147483648\n",
        "input_dim: 0\ninput_dim: 8\ninput_dim: 8\n",
        "input_dim: 1\ninput_dim: -8\ninput_dim: 8\n"})
    EXPECT_THROW(parse(bad_dims, conv("kernel_size: 1")), ParseError)
        << bad_dims;
}

TEST(NetworkDef, InvalidDropoutRatioRejected) {
  EXPECT_THROW(
      ParseNetworkDef(
          "input: \"d\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 1\n"
          "input_dim: 1\n"
          "layers { name: \"x\" type: DROPOUT bottom: \"d\" top: \"x\" "
          "dropout_param { dropout_ratio: 1.5 } }\n"),
      ParseError);
}

TEST(NetworkDef, InvalidLrnLocalSizeRejected) {
  EXPECT_THROW(
      ParseNetworkDef(
          "input: \"d\"\ninput_dim: 1\ninput_dim: 8\ninput_dim: 4\n"
          "input_dim: 4\n"
          "layers { name: \"n\" type: LRN bottom: \"d\" top: \"n\" "
          "lrn_param { local_size: 4 } }\n"),
      ParseError);  // even local_size
}

TEST(NetworkDef, MissingNameOrTypeRejected) {
  const std::string header =
      "input: \"d\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 1\n"
      "input_dim: 1\n";
  EXPECT_THROW(
      ParseNetworkDef(header +
                      "layers { type: RELU bottom: \"d\" top: \"x\" }\n"),
      ParseError);
  EXPECT_THROW(
      ParseNetworkDef(header +
                      "layers { name: \"x\" bottom: \"d\" top: \"x\" }\n"),
      ParseError);
}

TEST(NetworkDef, WrongInputDimCountRejected) {
  EXPECT_THROW(ParseNetworkDef("input: \"d\"\ninput_dim: 1\ninput_dim: 2\n"
                               "layers { name: \"x\" type: RELU bottom: "
                               "\"d\" top: \"x\" }\n"),
               Error);
}

TEST(NetworkDef, EmptyNetworkRejected) {
  EXPECT_THROW(ParseNetworkDef("name: \"empty\"\n"), Error);
}

TEST(NetworkDef, RecurrentActivationParsed) {
  const NetworkDef net = ParseNetworkDef(
      "input: \"d\"\ninput_dim: 1\ninput_dim: 4\ninput_dim: 1\n"
      "input_dim: 1\n"
      "layers { name: \"r\" type: RECURRENT bottom: \"d\" top: \"r\" "
      "recurrent_param { num_output: 4 time_steps: 3 "
      "activation: SIGMOID } }\n");
  ASSERT_TRUE(net.layers[0].recurrent.has_value());
  EXPECT_EQ(net.layers[0].recurrent->activation,
            RecurrentActivation::kSigmoid);
  EXPECT_EQ(net.layers[0].recurrent->time_steps, 3);
}

TEST(NetworkDef, UnknownConnectDirectionRejected) {
  EXPECT_THROW(
      ParseNetworkDef(
          "input: \"d\"\ninput_dim: 1\ninput_dim: 1\ninput_dim: 1\n"
          "input_dim: 1\n"
          "layers { name: \"x\" type: RELU bottom: \"d\" top: \"x\" "
          "connect { name: \"c\" direction: sideways type: full } }\n"),
      ParseError);
}

}  // namespace
}  // namespace db
