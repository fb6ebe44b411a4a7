// Tests for AGU pattern generation and expansion (paper §3.3, Fig. 6).
#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"
#include "core/agu_program.h"
#include "core/generator.h"
#include "models/zoo.h"

namespace db {
namespace {

AguProgram ProgramFor(ZooModel model) {
  const Network net = BuildZooModel(model);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  return design.agu_program;
}

TEST(AguExpand, MatchesNestedCounters) {
  AguPattern p;
  p.start_addr = 100;
  p.x_length = 3;
  p.y_length = 2;
  p.stride = 4;
  p.offset = 32;
  const auto addrs = ExpandPattern(p);
  const std::vector<std::int64_t> expected = {100, 104, 108,
                                              132, 136, 140};
  EXPECT_EQ(addrs, expected);
}

TEST(AguExpand, SingleBeat) {
  AguPattern p;
  p.start_addr = 0;
  p.x_length = 1;
  p.y_length = 1;
  const auto addrs = ExpandPattern(p);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0], 0);
}

TEST(AguExpand, FootprintMatchesBeats) {
  AguPattern p;
  p.x_length = 5;
  p.y_length = 7;
  p.beat_bytes = 16;
  EXPECT_EQ(p.Footprint(), 5 * 7 * 16);
  EXPECT_EQ(static_cast<std::int64_t>(ExpandPattern(p).size()), 5 * 7);
}

TEST(AguProgram, EveryLayerHasMainPatterns) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const IrLayer* layer : net.ComputeLayers()) {
    const auto patterns = design.agu_program.ForLayer(layer->id);
    EXPECT_GE(patterns.size(), 3u) << layer->name();  // in, out, stream
    bool has_load = false, has_store = false, has_stream = false;
    for (const AguPattern* p : patterns) {
      if (p->kind == TransferKind::kLoadInput) has_load = true;
      if (p->kind == TransferKind::kStoreOutput) has_store = true;
      if (p->kind == TransferKind::kStreamData) has_stream = true;
    }
    EXPECT_TRUE(has_load) << layer->name();
    EXPECT_TRUE(has_store) << layer->name();
    EXPECT_TRUE(has_stream) << layer->name();
  }
}

TEST(AguProgram, MainLoadCoversProducerRegion) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const IrLayer* layer : net.ComputeLayers()) {
    const IrLayer& producer = net.layer(layer->input_ids.front());
    const MemoryRegion& region =
        design.memory_map.Blob(producer.name());
    for (const AguPattern* p :
         design.agu_program.ForLayer(layer->id)) {
      if (p->kind != TransferKind::kLoadInput) continue;
      const auto addrs = ExpandPattern(*p);
      // Every beat address within the region; beats cover the region.
      std::set<std::int64_t> unique(addrs.begin(), addrs.end());
      EXPECT_EQ(unique.size(), addrs.size()) << "duplicate beats";
      EXPECT_GE(*unique.begin(), region.base);
      EXPECT_LT(*unique.rbegin(), region.end());
      EXPECT_GE(p->Footprint(), region.bytes) << layer->name();
    }
  }
}

TEST(AguProgram, WeightPatternsOnlyForParameterisedLayers) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const IrLayer* layer : net.ComputeLayers()) {
    bool has_weight_stream = false;
    for (const AguPattern* p : design.agu_program.ForLayer(layer->id))
      if (p->kind == TransferKind::kStreamWeights)
        has_weight_stream = true;
    const bool parameterised =
        design.memory_map.HasWeights(layer->name());
    EXPECT_EQ(has_weight_stream, parameterised) << layer->name();
  }
}

TEST(AguProgram, PatternIdsUniqueAndDense) {
  const AguProgram program = ProgramFor(ZooModel::kCifar);
  std::set<int> ids;
  for (const AguPattern& p : program.patterns) ids.insert(p.id);
  EXPECT_EQ(ids.size(), program.patterns.size());
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(),
            static_cast<int>(program.patterns.size()) - 1);
}

TEST(AguProgram, RoleCountsConsistent) {
  const AguProgram program = ProgramFor(ZooModel::kMnist);
  int total = program.CountFor(AguRole::kMain) +
              program.CountFor(AguRole::kData) +
              program.CountFor(AguRole::kWeight);
  EXPECT_EQ(total, static_cast<int>(program.patterns.size()));
  EXPECT_GT(program.CountFor(AguRole::kMain), 0);
  EXPECT_GT(program.CountFor(AguRole::kData), 0);
}

TEST(AguProgram, EventsNamedAfterLayers) {
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  EXPECT_EQ(AguTriggerEvent(3), "layer3_fold0");
  // Listing line 1 + i is pattern i; its event column names the
  // pattern's own compute layer.
  std::set<int> compute;
  for (const IrLayer* layer : net.ComputeLayers()) compute.insert(layer->id);
  const std::vector<std::string> lines =
      Split(design.agu_program.ToString(), '\n');
  ASSERT_GE(lines.size(), design.agu_program.patterns.size() + 1);
  for (std::size_t i = 0; i < design.agu_program.patterns.size(); ++i) {
    const AguPattern& p = design.agu_program.patterns[i];
    EXPECT_TRUE(compute.count(p.layer_id)) << p.layer_id;
    // Built with +=: GCC 12 at -O3 reports a false -Wrestrict on
    // "lit" + std::string&&.
    std::string column = " ";
    column += AguTriggerEvent(p.layer_id);
    column += ' ';
    EXPECT_NE(lines[i + 1].find(column), std::string::npos) << lines[i + 1];
  }
}

TEST(AguProgram, ToStringShowsFigure6Fields) {
  const AguProgram program = ProgramFor(ZooModel::kAnn0Fft);
  const std::string text = program.ToString();
  for (const char* field : {"start", "xlen", "ylen", "stride", "offset"})
    EXPECT_NE(text.find(field), std::string::npos) << field;
}

TEST(TransferKinds, Names) {
  EXPECT_EQ(TransferKindName(TransferKind::kLoadInput), "load_input");
  EXPECT_EQ(TransferKindName(TransferKind::kLoadWeights), "load_weights");
  EXPECT_EQ(TransferKindName(TransferKind::kStoreOutput), "store_output");
  EXPECT_EQ(TransferKindName(TransferKind::kStreamData), "stream_data");
  EXPECT_EQ(TransferKindName(TransferKind::kStreamWeights),
            "stream_weights");
}

}  // namespace
}  // namespace db
