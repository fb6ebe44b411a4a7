// Tests for the graph IR: construction, shape inference, validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.h"
#include "graph/network.h"
#include "models/zoo.h"

namespace db {
namespace {

std::string Header(int c, int h, int w) {
  return "input: \"data\"\ninput_dim: 1\ninput_dim: " + std::to_string(c) +
         "\ninput_dim: " + std::to_string(h) +
         "\ninput_dim: " + std::to_string(w) + "\n";
}

TEST(Network, BuildSimpleChain) {
  const Network net = Network::Build(ParseNetworkDef(
      Header(1, 8, 8) +
      "layers { name: \"c\" type: CONVOLUTION bottom: \"data\" top: \"c\" "
      "param { num_output: 4 kernel_size: 3 } }\n"
      "layers { name: \"r\" type: RELU bottom: \"c\" top: \"r\" }\n"));
  EXPECT_EQ(net.layers().size(), 3u);  // input + 2
  EXPECT_EQ(net.ComputeLayers().size(), 2u);
  EXPECT_EQ(net.OutputLayer().name(), "r");
  EXPECT_FALSE(net.HasRecurrence());
}

TEST(Network, DanglingBottomRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"nope\" top: \"r\" "
          "}\n")),
      Error);
}

TEST(Network, DuplicateLayerNameRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"data\" top: \"r\" }\n"
          "layers { name: \"r\" type: RELU bottom: \"r\" top: \"r2\" }\n")),
      Error);
}

TEST(Network, ForwardReferenceRejected) {
  // Layers must be listed in propagation order.
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"a\" type: RELU bottom: \"b\" top: \"a\" }\n"
          "layers { name: \"b\" type: RELU bottom: \"data\" top: \"b\" "
          "}\n")),
      Error);
}

TEST(ShapeInference, Convolution) {
  LayerDef def;
  def.name = "c";
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 96, .kernel_size = 11,
                               .stride = 4, .pad = 0, .bias = true};
  const BlobShape out = InferOutputShape(def, {{3, 227, 227}});
  EXPECT_EQ(out.channels, 96);
  EXPECT_EQ(out.height, 55);
  EXPECT_EQ(out.width, 55);
}

TEST(ShapeInference, ConvolutionWithPadding) {
  LayerDef def;
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 8, .kernel_size = 3,
                               .stride = 1, .pad = 1, .bias = true};
  const BlobShape out = InferOutputShape(def, {{4, 16, 16}});
  EXPECT_EQ(out.height, 16);  // "same" padding
  EXPECT_EQ(out.width, 16);
}

TEST(ShapeInference, ConvolutionTooLargeKernelRejected) {
  LayerDef def;
  def.name = "c";
  def.kind = LayerKind::kConvolution;
  def.conv = ConvolutionParams{.num_output = 4, .kernel_size = 9,
                               .stride = 1, .pad = 0, .bias = true};
  EXPECT_THROW(InferOutputShape(def, {{1, 5, 5}}), Error);
}

TEST(ShapeInference, PoolingCeilSemantics) {
  LayerDef def;
  def.kind = LayerKind::kPooling;
  def.pool = PoolingParams{.method = PoolMethod::kMax, .kernel_size = 3,
                           .stride = 2, .pad = 0};
  // Caffe ceil: (55 - 3)/2 + 1 = 27; (13-3)/2+1 = 6.
  EXPECT_EQ(InferOutputShape(def, {{96, 55, 55}}).height, 27);
  EXPECT_EQ(InferOutputShape(def, {{256, 13, 13}}).height, 6);
  // Partially covered edge window still produces a pixel: (7-3+1)/2 ceil.
  EXPECT_EQ(InferOutputShape(def, {{1, 7, 7}}).height, 3);
}

TEST(ShapeInference, PoolingKernelLargerThanPaddedInputThrows) {
  // The kernel must fit the padded input before the output size is
  // divided out: a 5x5 kernel on 4x4 (and on a 1x1 left by a huge conv
  // stride) is a user-facing error, not an internal check.
  LayerDef def;
  def.name = "pool";
  def.kind = LayerKind::kPooling;
  def.pool = PoolingParams{.method = PoolMethod::kMax, .kernel_size = 5,
                           .stride = 1, .pad = 0};
  EXPECT_THROW(InferOutputShape(def, {{1, 4, 4}}), Error);
  EXPECT_THROW(InferOutputShape(def, {{8, 1, 1}}), Error);
  EXPECT_THROW(InferOutputShape(def, {{1, 8, 4}}), Error);  // width only
  // Padding can make it fit: 4 + 2*1 - 5 = 1 -> 2x2.
  def.pool->pad = 1;
  EXPECT_EQ(InferOutputShape(def, {{1, 4, 4}}).height, 2);
  // Exactly the padded size still yields one window.
  def.pool->pad = 0;
  def.pool->kernel_size = 4;
  def.pool->stride = 2147483648;
  EXPECT_EQ(InferOutputShape(def, {{1, 4, 4}}).width, 1);
}

TEST(ShapeInference, TensorsPastTwoToThe31ElementsRejected) {
  // No blob or weight tensor may exceed 2^31 elements (2 GB of device
  // DRAM at one byte each).  The largest admitted pad, 2^31-1, makes a
  // 4 x 4G x 4G output whose count saturates instead of wrapping.
  const auto conv = [](const std::string& geometry) {
    return Network::Build(ParseNetworkDef(
        Header(1, 8, 8) +
        "layers { name: \"c\" type: CONVOLUTION bottom: \"data\" "
        "top: \"c\" param { num_output: 4 " + geometry + " } }\n"));
  };
  EXPECT_THROW(conv("kernel_size: 3 pad: 1048576"), Error);
  EXPECT_THROW(conv("kernel_size: 3 pad: 2147483647"), Error);
  // 4 x 1 x 23170^2 weights stay under the limit, one more does not.
  EXPECT_NO_THROW(conv("kernel_size: 23170 pad: 11581"));
  EXPECT_THROW(conv("kernel_size: 23171 pad: 11582"), Error);
  const auto fc = [](int c, int h, int w, std::int64_t num_output) {
    return Network::Build(ParseNetworkDef(
        Header(c, h, w) +
        "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"data\" "
        "top: \"fc\" param { num_output: " + std::to_string(num_output) +
        " } }\n"));
  };
  EXPECT_NO_THROW(fc(2, 32768, 32768, 1));  // exactly 2^31 weights
  EXPECT_THROW(fc(2, 32768, 32768, 2), Error);
  EXPECT_THROW(fc(8, 1, 1, 2147483647), Error);
  EXPECT_THROW(fc(3, 2147483647, 2147483647, 1), Error);  // input blob
}

TEST(ShapeInference, InnerProductFlattens) {
  LayerDef def;
  def.kind = LayerKind::kInnerProduct;
  def.fc = InnerProductParams{.num_output = 10, .bias = true};
  const BlobShape out = InferOutputShape(def, {{16, 3, 3}});
  EXPECT_EQ(out.channels, 10);
  EXPECT_EQ(out.height, 1);
  EXPECT_EQ(out.width, 1);
}

TEST(ShapeInference, ElementwisePreservesShape) {
  for (LayerKind kind : {LayerKind::kRelu, LayerKind::kSigmoid,
                         LayerKind::kTanh, LayerKind::kSoftmax}) {
    LayerDef def;
    def.kind = kind;
    if (kind == LayerKind::kDropout) def.dropout = DropoutParams{};
    const BlobShape out = InferOutputShape(def, {{5, 7, 9}});
    EXPECT_EQ(out, (BlobShape{5, 7, 9}));
  }
}

TEST(ShapeInference, LrnValidatesLocalSize) {
  LayerDef def;
  def.name = "n";
  def.kind = LayerKind::kLrn;
  def.lrn = LrnParams{.local_size = 5, .alpha = 1e-4, .beta = 0.75};
  EXPECT_EQ(InferOutputShape(def, {{96, 4, 4}}), (BlobShape{96, 4, 4}));
  EXPECT_THROW(InferOutputShape(def, {{3, 4, 4}}), Error);
}

TEST(ShapeInference, ConcatSumsChannels) {
  LayerDef def;
  def.name = "cat";
  def.kind = LayerKind::kConcat;
  const BlobShape out =
      InferOutputShape(def, {{3, 8, 8}, {5, 8, 8}, {2, 8, 8}});
  EXPECT_EQ(out.channels, 10);
  EXPECT_THROW(InferOutputShape(def, {{3, 8, 8}, {5, 4, 4}}), Error);
}

TEST(ShapeInference, RecurrentAndAssociative) {
  LayerDef rec;
  rec.kind = LayerKind::kRecurrent;
  rec.recurrent = RecurrentParams{.num_output = 25, .time_steps = 60,
                                  .activation = RecurrentActivation::kTanh};
  EXPECT_EQ(InferOutputShape(rec, {{25, 1, 1}}).channels, 25);

  LayerDef assoc;
  assoc.kind = LayerKind::kAssociative;
  assoc.associative = AssociativeParams{.num_cells = 512,
                                        .generalization = 8,
                                        .num_output = 2};
  EXPECT_EQ(InferOutputShape(assoc, {{2, 1, 1}}).channels, 2);
}

TEST(ShapeInference, ClassifierOutputsTopK) {
  LayerDef def;
  def.kind = LayerKind::kClassifier;
  def.classifier = ClassifierParams{.top_k = 5};
  EXPECT_EQ(InferOutputShape(def, {{1000, 1, 1}}).channels, 5);
}

TEST(ShapeInference, WrongArityRejected) {
  LayerDef def;
  def.name = "r";
  def.kind = LayerKind::kRelu;
  EXPECT_THROW(InferOutputShape(def, {}), Error);
  EXPECT_THROW(InferOutputShape(def, {{1, 2, 2}, {1, 2, 2}}), Error);
}

TEST(Network, RecurrenceDetected) {
  const Network hopfield = BuildZooModel(ZooModel::kHopfield);
  EXPECT_TRUE(hopfield.HasRecurrence());
  const Network mnist = BuildZooModel(ZooModel::kMnist);
  EXPECT_FALSE(mnist.HasRecurrence());
}

TEST(Network, RecurrentConnectOnStatelessKindRejected) {
  EXPECT_THROW(
      Network::Build(ParseNetworkDef(
          Header(1, 4, 4) +
          "layers { name: \"r\" type: RELU bottom: \"data\" top: \"r\" "
          "connect { name: \"x\" direction: recurrent type: full } }\n")),
      Error);
}

// Table 1 decomposition: layer-kind presence per model.
TEST(Network, KindHistogramMatchesTable1) {
  const auto mnist = BuildZooModel(ZooModel::kMnist).KindHistogram();
  EXPECT_GT(mnist.at(LayerKind::kConvolution), 0);
  EXPECT_GT(mnist.at(LayerKind::kPooling), 0);
  EXPECT_GT(mnist.at(LayerKind::kInnerProduct), 0);
  EXPECT_EQ(mnist.count(LayerKind::kDropout), 0u);

  const auto alexnet = BuildZooModel(ZooModel::kAlexnet).KindHistogram();
  EXPECT_GT(alexnet.at(LayerKind::kDropout), 0);
  EXPECT_GT(alexnet.at(LayerKind::kLrn), 0);

  const auto cmac = BuildZooModel(ZooModel::kCmac).KindHistogram();
  EXPECT_GT(cmac.at(LayerKind::kAssociative), 0);
  EXPECT_EQ(cmac.count(LayerKind::kConvolution), 0u);
}

TEST(Network, SummaryMentionsEveryLayer) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const std::string summary = net.Summary();
  for (const IrLayer& layer : net.layers())
    EXPECT_NE(summary.find(layer.name()), std::string::npos)
        << layer.name();
}

TEST(Network, LayerAccessorBoundsChecked) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  EXPECT_THROW(net.layer(-1), std::logic_error);
  EXPECT_THROW(net.layer(1000), std::logic_error);
}

}  // namespace
}  // namespace db
