// Tests for the coordinator schedule (dynamic control flow).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/generator.h"
#include "core/schedule.h"
#include "models/zoo.h"

namespace db {
namespace {

AcceleratorDesign DesignFor(ZooModel model) {
  return GenerateAccelerator(BuildZooModel(model), DbConstraint());
}

TEST(Schedule, OneEntryPerLayerEveryZooModel) {
  // The coordinator FSM holds one state per layer, and the schedule is
  // exactly its state list.
  for (ZooModel model : AllZooModels()) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
    const auto& entries = design.schedule.entries;
    EXPECT_EQ(entries.size(), net.ComputeLayers().size());
    const auto coordinator =
        std::find_if(design.blocks.begin(), design.blocks.end(),
                     [](const BlockInstance& b) {
                       return b.config.type == BlockType::kCoordinator;
                     });
    ASSERT_NE(coordinator, design.blocks.end());
    EXPECT_EQ(static_cast<std::size_t>(coordinator->config.fold_events),
              entries.size());
    DatapathPort previous = DatapathPort::kDataBuffer;
    for (const ScheduleEntry& e : entries) {
      EXPECT_EQ(e.producer, previous) << "layer " << e.layer_id;
      previous = e.consumer;
    }
  }
}

TEST(Schedule, LayersAppearInPropagationOrder) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  const std::vector<const IrLayer*> layers = net.ComputeLayers();
  ASSERT_EQ(design.schedule.entries.size(), layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i)
    EXPECT_EQ(design.schedule.entries[i].layer_id, layers[i]->id);
}

TEST(Schedule, EachEntryArmsItsLayersPatterns) {
  const AcceleratorDesign design = DesignFor(ZooModel::kCifar);
  for (const ScheduleEntry& e : design.schedule.entries) {
    std::vector<int> want;
    for (const AguPattern* p : design.agu_program.ForLayer(e.layer_id))
      want.push_back(p->id);
    EXPECT_FALSE(e.pattern_ids.empty()) << "layer " << e.layer_id;
    EXPECT_EQ(e.pattern_ids, want) << "layer " << e.layer_id;
  }
}

TEST(Schedule, ProducerChainsThroughConsumers) {
  const AcceleratorDesign design = DesignFor(ZooModel::kMnist);
  const auto& entries = design.schedule.entries;
  ASSERT_GE(entries.size(), 2u);
  EXPECT_EQ(entries.front().producer, DatapathPort::kDataBuffer);
  for (std::size_t i = 1; i < entries.size(); ++i)
    EXPECT_EQ(entries[i].producer, entries[i - 1].consumer) << i;
}

TEST(Schedule, ConsumerBlocksMatchLayerKind) {
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  for (const ScheduleEntry& e : design.schedule.entries) {
    const IrLayer& layer = net.layer(e.layer_id);
    switch (layer.kind()) {
      case LayerKind::kConvolution:
      case LayerKind::kInnerProduct:
        EXPECT_EQ(e.consumer, DatapathPort::kSynergyArray) << layer.name();
        break;
      case LayerKind::kPooling:
        EXPECT_EQ(e.consumer, DatapathPort::kPoolingUnit) << layer.name();
        break;
      case LayerKind::kRelu:
      case LayerKind::kSoftmax:
        EXPECT_EQ(e.consumer, DatapathPort::kActivationUnit)
            << layer.name();
        break;
      default:
        break;
    }
  }
}

TEST(Schedule, ToStringListsSteps) {
  // One row per layer under a header, each with its segment count.
  const AcceleratorDesign design = DesignFor(ZooModel::kAnn0Fft);
  const std::string text = design.schedule.ToString(design.fold_plan);
  EXPECT_NE(text.find("segments"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            design.schedule.entries.size() + 1);
  for (const LayerFold& fold : design.fold_plan.folds)
    EXPECT_NE(text.find(fold.layer_name), std::string::npos)
        << fold.layer_name;
}

TEST(Schedule, HopfieldRunsOnSynergyArray) {
  const AcceleratorDesign design = DesignFor(ZooModel::kHopfield);
  bool saw_mac = false;
  for (const ScheduleEntry& e : design.schedule.entries)
    if (e.consumer == DatapathPort::kSynergyArray) saw_mac = true;
  EXPECT_TRUE(saw_mac);
}

}  // namespace
}  // namespace db
