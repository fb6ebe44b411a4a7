// Tests for the transaction-level performance model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/error.h"
#include "core/generator.h"
#include "frontend/network_def.h"
#include "graph/layer_stats.h"
#include "models/zoo.h"
#include "sim/perf_model.h"
#include "sim/trace.h"

namespace db {
namespace {

PerfResult Simulate(ZooModel model, const DesignConstraint& constraint,
                    const PerfOptions& options = {}) {
  const Network net = BuildZooModel(model);
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  return SimulatePerformance(net, design, options);
}

TEST(PerfModel, PositiveCyclesForEveryLayer) {
  const PerfResult perf = Simulate(ZooModel::kMnist, DbConstraint());
  EXPECT_GT(perf.total_cycles, 0);
  for (const LayerTiming& lt : perf.layers) {
    EXPECT_GT(lt.total_cycles, 0) << lt.name;
    EXPECT_GE(lt.compute_cycles, 0) << lt.name;
  }
}

TEST(PerfModel, TotalIsAtLeastSumOfLayerSpans) {
  const PerfResult perf = Simulate(ZooModel::kCifar, DbConstraint());
  std::int64_t sum = 0;
  for (const LayerTiming& lt : perf.layers) sum += lt.total_cycles;
  EXPECT_EQ(perf.total_cycles, sum);  // layers execute back-to-back
}

TEST(PerfModel, DoubleBufferingNeverSlower) {
  PerfOptions serial;
  serial.double_buffer = false;
  const PerfResult overlapped =
      Simulate(ZooModel::kAlexnet, DbConstraint());
  const PerfResult serialised =
      Simulate(ZooModel::kAlexnet, DbConstraint(), serial);
  EXPECT_LE(overlapped.total_cycles, serialised.total_cycles);
}

TEST(PerfModel, NaiveLayoutSlowerOnConvNets) {
  PerfOptions naive;
  naive.force_naive_layout = true;
  const PerfResult tiled = Simulate(ZooModel::kAlexnet, DbConstraint());
  const PerfResult row_major =
      Simulate(ZooModel::kAlexnet, DbConstraint(), naive);
  // Method-1 tiling is the point of §3.4: the naive layout must cost
  // substantially more DRAM traffic and time.
  EXPECT_GT(row_major.total_dram_bytes, 2 * tiled.total_dram_bytes);
  EXPECT_GT(row_major.total_cycles, tiled.total_cycles);
}

TEST(PerfModel, MoreLanesFasterOnBigModels) {
  const PerfResult medium = Simulate(ZooModel::kAlexnet, DbConstraint());
  const PerfResult large = Simulate(ZooModel::kAlexnet, DbLConstraint());
  const PerfResult small = Simulate(ZooModel::kAlexnet, DbSConstraint());
  EXPECT_LT(large.total_cycles, medium.total_cycles);
  EXPECT_LT(medium.total_cycles, small.total_cycles);
}

TEST(PerfModel, DramBytesIncludeWeightsOnce) {
  const Network net = BuildZooModel(ZooModel::kAnn1Jpeg);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const PerfResult perf = SimulatePerformance(net, design);
  // Weights dominate the tiny MLP's traffic; bytes must at least cover
  // one full weight pass.
  std::int64_t weight_bytes = 0;
  for (const auto& region : design.memory_map.regions())
    if (region.name.starts_with("weights:")) weight_bytes += region.bytes;
  EXPECT_GE(perf.total_dram_bytes, weight_bytes / 2);
}

TEST(PerfModel, HigherOverheadCostsCycles) {
  PerfOptions cheap;
  cheap.segment_overhead_cycles = 0;
  cheap.layer_overhead_cycles = 0;
  cheap.dram_burst_latency = 0;
  PerfOptions dear;
  dear.segment_overhead_cycles = 64;
  dear.layer_overhead_cycles = 512;
  dear.dram_burst_latency = 64;
  const PerfResult fast = Simulate(ZooModel::kMnist, DbConstraint(), cheap);
  const PerfResult slow = Simulate(ZooModel::kMnist, DbConstraint(), dear);
  EXPECT_LT(fast.total_cycles, slow.total_cycles);
}

TEST(PerfModel, RuntimeConversion) {
  PerfResult perf;
  perf.total_cycles = 1000000;
  perf.frequency_mhz = 100.0;
  EXPECT_DOUBLE_EQ(perf.TotalSeconds(), 0.01);
  EXPECT_DOUBLE_EQ(perf.TotalMs(), 10.0);
}

TEST(PerfModel, ToStringListsLayersAndTotal) {
  const PerfResult perf = Simulate(ZooModel::kMnist, DbConstraint());
  const std::string text = perf.ToString();
  EXPECT_NE(text.find("conv1"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
}

TEST(PerfModel, ComputeBoundLayerMatchesLaneMath) {
  // For the tiny ANN (1 lane, weights tiny), fc2's compute cycles are
  // segments * unit_work + per-segment overhead.
  const Network net = BuildZooModel(ZooModel::kAnn0Fft);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  const PerfResult perf = SimulatePerformance(net, design);
  for (const LayerTiming& lt : perf.layers) {
    const LayerFold& fold = design.fold_plan.ForLayer(lt.layer_id);
    const PerfOptions defaults;
    EXPECT_EQ(lt.compute_cycles,
              fold.segments *
                  (fold.unit_work + defaults.segment_overhead_cycles))
        << lt.name;
  }
}

TEST(PerfModel, UnfoldedOverBufferLayerPaysRefetchTraffic) {
  // Regression: ComputeTraffic used to add refetch passes only when a
  // layer was folded (segments > 1); an *unfolded* layer whose input
  // working set exceeds the data buffer silently under-counted DRAM
  // fetch traffic.  Shrinking the data buffer below a segments == 1
  // layer's input bytes must now increase total_dram_bytes.
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign roomy = GenerateAccelerator(net, DbConstraint());

  // Find an unfolded layer and the largest input working set among them.
  std::int64_t max_unfolded_input_bytes = 0;
  for (const IrLayer* layer : net.ComputeLayers()) {
    if (roomy.fold_plan.ForLayer(layer->id).segments != 1) continue;
    const LayerStats stats = ComputeLayerStats(*layer);
    max_unfolded_input_bytes =
        std::max(max_unfolded_input_bytes,
                 stats.input_elems * roomy.config.ElementBytes());
  }
  ASSERT_GT(max_unfolded_input_bytes, 0)
      << "fixture needs at least one unfolded layer";

  AcceleratorDesign cramped = roomy;
  cramped.config.data_buffer_bytes = max_unfolded_input_bytes / 2;
  ASSERT_LT(cramped.config.data_buffer_bytes, max_unfolded_input_bytes);

  const PerfResult with_room = SimulatePerformance(net, roomy);
  const PerfResult without_room = SimulatePerformance(net, cramped);
  EXPECT_GT(without_room.total_dram_bytes, with_room.total_dram_bytes);

  // The increase must show up on an unfolded layer specifically.
  bool unfolded_layer_grew = false;
  for (std::size_t i = 0; i < with_room.layers.size(); ++i) {
    const LayerTiming& a = with_room.layers[i];
    const LayerTiming& b = without_room.layers[i];
    if (a.segments == 1 && b.dram_bytes > a.dram_bytes)
      unfolded_layer_grew = true;
  }
  EXPECT_TRUE(unfolded_layer_grew);
}

// A 3x4Mx4M input into one INNER_PRODUCT would need a petabyte-scale
// memory map; Network::Build now rejects any tensor past 2^31 elements.
// The largest network it admits, a 2x32Kx32K input into one output,
// still needs 4 GB of input.  The verifier rejects it (mem.capacity);
// compiled without the verifier and given a one-byte data buffer, its
// input re-streams 2^32 times, so the fetch alone passes 2^63 bytes.
// The perf model must saturate instead of wrapping its cycle sums into
// garbage (a wrapped fetch once produced trace spans ending before they
// start), and so must a batch of 2^62 such images.
TEST(PerfModel, OversizedDesignKeepsCycleCountsOrdered) {
  const auto fc_net = [](const std::string& dims) {
    return ParseNetworkDef(
        "name: \"huge\"\ninput: \"data\"\ninput_dim: 1\n" + dims +
        "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"data\" "
        "top: \"fc\" inner_product_param { num_output: 1 } }\n");
  };
  EXPECT_THROW(Network::Build(fc_net(
                   "input_dim: 3\ninput_dim: 4000000\ninput_dim: 4000000\n")),
               Error);
  const Network net = Network::Build(
      fc_net("input_dim: 2\ninput_dim: 32768\ninput_dim: 32768\n"));
  AcceleratorDesign design =
      CompileForConfig(net, SizeDatapath(net, DbConstraint()));
  design.config.data_buffer_bytes = 1;
  PerfTrace trace;
  PerfOptions options;
  options.trace = &trace;
  const PerfResult perf = SimulatePerformance(net, design, options);
  ASSERT_EQ(perf.layers.size(), 1u);
  const LayerTiming& fc = perf.layers[0];
  EXPECT_EQ(fc.dram_bytes, INT64_MAX) << "the fetch must saturate";
  EXPECT_EQ(perf.total_dram_bytes, INT64_MAX);
  EXPECT_GT(fc.memory_cycles, std::int64_t{1} << 56)
      << "a saturated fetch must still take saturated-scale time";
  EXPECT_GT(fc.compute_cycles, 0);
  EXPECT_GE(fc.total_cycles, fc.memory_cycles);
  EXPECT_GE(fc.total_cycles, fc.compute_cycles);
  EXPECT_GE(perf.total_cycles, fc.total_cycles);
  ASSERT_FALSE(trace.events.empty());
  for (const TraceEvent& e : trace.events) {
    EXPECT_GE(e.start, 0);
    EXPECT_GE(e.end, e.start);
    EXPECT_LE(e.end, perf.total_cycles);
  }
  const BatchResult batch = SimulateBatch(net, design, std::int64_t{1} << 62);
  EXPECT_EQ(batch.total_cycles, INT64_MAX);
  EXPECT_GE(batch.total_cycles, batch.first_image_cycles);
}

TEST(PerfModel, DeterministicAcrossRuns) {
  const PerfResult a = Simulate(ZooModel::kCifar, DbConstraint());
  const PerfResult b = Simulate(ZooModel::kCifar, DbConstraint());
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.total_dram_bytes, b.total_dram_bytes);
}

}  // namespace
}  // namespace db
