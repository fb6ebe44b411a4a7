// Tests for the host-side DRAM image writer: quantised weights, tiled
// input blobs, and closure against the main AGU's load patterns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "core/agu_rtl_model.h"
#include "core/memory_image.h"
#include "models/zoo.h"
#include "nn/executor.h"

namespace db {
namespace {

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model)
      : net(BuildZooModel(model)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(5);
    weights = WeightStore::CreateRandom(net, rng);
  }

  Tensor RandomInput(std::uint64_t seed) const {
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(seed);
    t.FillUniform(rng, 0.0f, 1.0f);
    return t;
  }
};

TEST(MemoryImageRaw, ElementRoundTripSignExtends) {
  MemoryImage image(64);
  image.WriteElem(0, -1234, 2);
  EXPECT_EQ(image.ReadElem(0, 2), -1234);
  image.WriteElem(8, 32767, 2);
  EXPECT_EQ(image.ReadElem(8, 2), 32767);
  image.WriteElem(16, -32768, 2);
  EXPECT_EQ(image.ReadElem(16, 2), -32768);
}

TEST(MemoryImageRaw, BoundsChecked) {
  MemoryImage image(4);
  EXPECT_THROW(image.WriteElem(3, 0, 2), std::logic_error);
  EXPECT_THROW(image.ReadElem(-1, 2), std::logic_error);
}

// WriteWeights must store exactly the low bytes of per-element Quantize
// in every 1- to 4-byte format, including every edge: NaN, infinities,
// signed zero, +-0.5-LSB ties, saturation at both ends and the Q31
// bounds.
TEST(MemoryImage, WriteWeightsEqualsPerElementQuantize) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  for (int elem_bytes = 1; elem_bytes <= 4; ++elem_bytes) {
    for (int total : {8 * elem_bytes - 3, 8 * elem_bytes}) {
      for (int frac : {0, total / 2, total - 1}) {
        DesignConstraint constraint = DbConstraint();
        constraint.bit_width = total;
        constraint.frac_bits = frac;
        const AcceleratorDesign design =
            GenerateAccelerator(net, constraint);
        const FixedFormat& fmt = design.config.format;
        ASSERT_EQ(design.config.ElementBytes(), elem_bytes);

        std::vector<float> values = {
            std::numeric_limits<float>::quiet_NaN(), kInf, -kInf, 0.0f,
            -0.0f, std::numeric_limits<float>::max(),
            std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::denorm_min()};
        const double lsb = fmt.resolution();
        for (std::int64_t raw : {std::int64_t{0}, std::int64_t{1},
                                 std::int64_t{-1}, fmt.raw_max(),
                                 fmt.raw_max() - 1, fmt.raw_min(),
                                 fmt.raw_min() + 1}) {
          const double centre = fmt.Dequantize(raw);
          for (double v : {centre, centre + lsb / 2, centre - lsb / 2}) {
            const float f = static_cast<float>(v);
            values.insert(values.end(), {f, std::nextafter(f, kInf),
                                         std::nextafter(f, -kInf)});
          }
        }
        for (double bound : {fmt.value_max(), fmt.value_min(),
                             2 * fmt.value_max(), 2 * fmt.value_min()})
          values.push_back(static_cast<float>(bound));

        // Every parameter, in pack order, takes the next value; edges
        // first, then seeded random values in and beyond range.
        WeightStore weights = WeightStore::CreateFor(net);
        Rng rng(static_cast<std::uint64_t>(100 * total + frac));
        std::size_t next = 0;
        for (const IrLayer* layer : net.ComputeLayers()) {
          if (!design.memory_map.HasWeights(layer->name())) continue;
          LayerParams& params = weights.at(layer->name());
          for (Tensor* t : {&params.weights, &params.bias,
                            &params.recurrent})
            for (float& w : t->storage())
              w = next < values.size()
                      ? values[next++]
                      : static_cast<float>(rng.Uniform(
                            2 * fmt.value_min(), 2 * fmt.value_max()));
        }
        ASSERT_EQ(next, values.size()) << "too few parameters for the edges";

        MemoryImage image(design.memory_map.total_bytes());
        WriteWeights(image, net, design, weights);
        for (const IrLayer* layer : net.ComputeLayers()) {
          if (!design.memory_map.HasWeights(layer->name())) continue;
          const LayerParams& params = weights.at(layer->name());
          std::int64_t addr = design.memory_map.Weights(layer->name()).base;
          for (const Tensor* t : {&params.weights, &params.bias,
                                  &params.recurrent}) {
            for (float w : t->storage()) {
              const std::int64_t want = fmt.Quantize(w);
              std::uint8_t want_bytes[8];
              std::memcpy(want_bytes, &want, sizeof want);
              ASSERT_EQ(std::memcmp(image.data() + addr, want_bytes,
                                    static_cast<std::size_t>(elem_bytes)),
                        0)
                  << fmt.ToString() << " value " << w;
              ASSERT_EQ(image.ReadElem(addr, elem_bytes), want)
                  << fmt.ToString() << " value " << w;
              addr += elem_bytes;
            }
          }
        }
      }
    }
  }
}

TEST(MemoryImage, BlobStoreExtractRoundTrip) {
  const Fixture fx(ZooModel::kMnist);
  MemoryImage image(fx.design.memory_map.total_bytes());
  const Tensor input = fx.RandomInput(9);
  StoreBlob(image, fx.net, fx.design, "data", input);
  const Tensor back = ExtractBlob(image, fx.net, fx.design, "data");
  // Round trip loses only quantisation.
  EXPECT_LT(MaxAbsDiff(input, back),
            fx.design.config.format.resolution());
}

TEST(MemoryImage, BuildsFullImage) {
  const Fixture fx(ZooModel::kMnist);
  const Tensor input = fx.RandomInput(11);
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights, {{"data", input}});
  EXPECT_EQ(image.size(), fx.design.memory_map.total_bytes());

  // Weights read back from their region match the quantised values in
  // serialisation order (weight matrix first).
  const MemoryRegion& region = fx.design.memory_map.Weights("conv1");
  const Tensor& w = fx.weights.at("conv1").weights;
  const FixedFormat& fmt = fx.design.config.format;
  const int eb = static_cast<int>(fx.design.config.ElementBytes());
  for (std::int64_t i = 0; i < std::min<std::int64_t>(w.size(), 16); ++i)
    EXPECT_EQ(image.ReadElem(region.base + i * eb, eb),
              fmt.Quantize(w[i]))
        << "weight " << i;
}

TEST(MemoryImage, MissingInputRejected) {
  const Fixture fx(ZooModel::kAnn0Fft);
  EXPECT_THROW(BuildMemoryImage(fx.net, fx.design, fx.weights, {}), Error);
}

TEST(MemoryImage, TileOrderMatchesConsumerLayout) {
  const Fixture fx(ZooModel::kMnist);
  const int data_id = fx.net.input_ids().front();
  const auto order = BlobTileOrder(fx.net, fx.design, data_id);
  // Same permutation the layout pass computes for conv1's input.
  const IrLayer* conv1 = nullptr;
  for (const IrLayer* layer : fx.net.ComputeLayers())
    if (layer->name() == "conv1") conv1 = layer;
  ASSERT_NE(conv1, nullptr);
  const auto expected = TilePermutation(
      fx.net.layer(data_id).output_shape,
      fx.design.layout.ForLayer(conv1->id).input_layout);
  EXPECT_EQ(order, expected);
}

TEST(MemoryImage, AguLoadPatternFetchesWholeInputRegion) {
  // Closure test: walking the main AGU's load-input pattern (through the
  // cycle-accurate RTL model) touches every beat of the producer blob's
  // region exactly once, so the datapath sees the complete tiled blob.
  const Fixture fx(ZooModel::kMnist);
  const Tensor input = fx.RandomInput(13);
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights, {{"data", input}});

  const IrLayer* conv1 = nullptr;
  for (const IrLayer* layer : fx.net.ComputeLayers())
    if (layer->name() == "conv1") conv1 = layer;
  ASSERT_NE(conv1, nullptr);

  for (const AguPattern* p :
       fx.design.agu_program.ForLayer(conv1->id)) {
    if (p->kind != TransferKind::kLoadInput) continue;
    const MemoryRegion& region = fx.design.memory_map.Blob("data");
    const auto addrs = RunAguPattern(*p);
    std::set<std::int64_t> unique(addrs.begin(), addrs.end());
    EXPECT_EQ(unique.size(), addrs.size());
    // Beats tile the region.
    EXPECT_EQ(static_cast<std::int64_t>(addrs.size()) * p->beat_bytes,
              region.bytes);
    for (std::int64_t addr : addrs) {
      EXPECT_GE(addr, region.base);
      EXPECT_LT(addr, region.end());
      // Every beat is readable from the image.
      EXPECT_NO_THROW(image.ReadElem(
          addr, static_cast<int>(fx.design.config.ElementBytes())));
    }
  }
}

TEST(MemoryImage, OutputBlobUsesIdentityOrder) {
  const Fixture fx(ZooModel::kAnn0Fft);
  const IrLayer& out_layer = fx.net.OutputLayer();
  const auto order = BlobTileOrder(fx.net, fx.design, out_layer.id);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
}

}  // namespace
}  // namespace db
