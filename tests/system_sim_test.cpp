// Tests for the system-level (DRAM-image-driven) simulation, the
// SystemContext invocation API, and the execution trace / VCD export.
#include <gtest/gtest.h>

#include <span>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "core/generator.h"
#include "fault/fault_injector.h"
#include "hwlib/device.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "sim/host_runtime.h"
#include "sim/power_model.h"
#include "sim/system_sim.h"
#include "sim/trace.h"

namespace db {
namespace {

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kMnist)
      : net(BuildZooModel(model)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(23);
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

TEST(SystemSim, DecodeWeightsRoundTrips) {
  const Fixture fx;
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  const WeightStore decoded = DecodeWeights(image, fx.net, fx.design);
  const double lsb = fx.design.config.format.resolution();
  for (const auto& [name, params] : fx.weights.all()) {
    const LayerParams& d = decoded.at(name);
    EXPECT_LT(MaxAbsDiff(params.weights, d.weights), lsb) << name;
    if (params.bias.size() > 0) {
      EXPECT_LT(MaxAbsDiff(params.bias, d.bias), lsb) << name;
    }
  }
}

TEST(SystemSim, MatchesDirectFunctionalSimulation) {
  const Fixture fx;
  MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  Rng rng(5);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);

  const SystemRunResult system =
      SystemContext(fx.net, fx.design, image).Run(image, input);
  FunctionalSimulator direct(fx.net, fx.design, fx.weights);
  const Tensor expected = direct.Run(input);
  // Weights round-trip through the image (one extra quantise, which is
  // idempotent) and the output round-trips through its blob region.
  EXPECT_LT(MaxAbsDiff(system.output, expected),
            2 * fx.design.config.format.resolution());
  EXPECT_GT(system.perf.total_cycles, 0);
}

TEST(SystemSim, CorruptedWeightRegionChangesOutput) {
  const Fixture fx;
  MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  Rng rng(6);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  const Tensor clean =
      SystemContext(fx.net, fx.design, image).Run(image, input).output;

  // Smash the first conv layer's weight region.
  const MemoryRegion& region = fx.design.memory_map.Weights("conv1");
  for (std::int64_t addr = region.base; addr < region.base + 64;
       addr += 2)
    image.WriteElem(addr, 0x7FFF, 2);
  const Tensor corrupted =
      SystemContext(fx.net, fx.design, image).Run(image, input).output;
  EXPECT_GT(MaxAbsDiff(clean, corrupted), 0.01);
}

// The context reads its weights in place from the image, so a bit flip
// in a weight region reaches the very next run of the SAME context, and
// scrubbing the region from the provisioned image restores the clean
// output bit for bit.
TEST(SystemSim, WeightFlipReachesLiveContextAndScrubRestoresIt) {
  const Fixture fx;
  const MemoryImage provisioned = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  MemoryImage image = provisioned;
  const SystemContext context(fx.net, fx.design, image);
  Rng rng(7);
  Tensor input(Shape{1, 12, 12});
  input.FillUniform(rng, 0.0f, 1.0f);
  const Tensor clean = context.Run(image, input).output;

  // The top bit of the first weight of conv1 (little-endian, so byte 1
  // of the 2-byte word is the high byte): the sign flips and the weight
  // jumps by half the format's range.
  const MemoryRegion& region = fx.design.memory_map.Weights("conv1");
  image.FlipBit(region.base + 1, 7);
  const Tensor flipped = context.Run(image, input).output;
  EXPECT_NE(flipped.storage(), clean.storage());

  fault::ScrubWeights(image, provisioned, fx.design.memory_map);
  EXPECT_EQ(context.Run(image, input).output.storage(), clean.storage());
}

// The same contract at every element width: 2- and 4-byte weights are
// read in place, 1- and 3-byte ones are widened from the image on every
// run — none may serve a flipped weight from a copy taken earlier.
TEST(SystemSim, WeightFlipReachesLiveContextForEveryElementWidth) {
  for (const int bits : {8, 16, 24, 32}) {
    SCOPED_TRACE("bit_width=" + std::to_string(bits));
    const Network net = BuildZooModel(ZooModel::kMnist);
    DesignConstraint constraint = DbConstraint();
    constraint.bit_width = bits;
    constraint.frac_bits = bits * 5 / 8;  // Q2.5 at 8 bits keeps softmax live
    const AcceleratorDesign design = GenerateAccelerator(net, constraint);
    ASSERT_EQ(design.config.ElementBytes(), bits / 8);
    Rng rng(23);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const MemoryImage provisioned = BuildMemoryImage(
        net, design, weights, {{"data", Tensor(Shape{1, 12, 12})}});
    MemoryImage image = provisioned;
    const SystemContext context(net, design, image);
    Tensor input(Shape{1, 12, 12});
    input.FillUniform(rng, 0.0f, 1.0f);
    const Tensor clean = context.Run(image, input).output;

    // The top bit of conv1's first weight: the high byte of its
    // little-endian element.
    const MemoryRegion& region = design.memory_map.Weights("conv1");
    image.FlipBit(region.base + design.config.ElementBytes() - 1, 7);
    EXPECT_NE(context.Run(image, input).output.storage(), clean.storage());

    fault::ScrubWeights(image, provisioned, design.memory_map);
    EXPECT_EQ(context.Run(image, input).output.storage(), clean.storage());
  }
}

TEST(SystemSim, RunRejectsAnImageOtherThanTheOneItViews) {
  const Fixture fx;
  MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  MemoryImage other = image;
  const SystemContext context(fx.net, fx.design, image);
  const Tensor input(Shape{1, 12, 12});
  EXPECT_THROW(context.Run(other, input), std::logic_error);
  // Moving the image keeps the buffer the context views.
  MemoryImage moved = std::move(image);
  EXPECT_NO_THROW(context.Run(moved, input));
}

// Regression: DecodeWeights used to check only per-element underflow,
// so an oversized weight region with trailing garbage decoded silently.
// Now anything beyond one port-alignment beat of padding is rejected.
TEST(SystemSim, TrailingGarbageWeightRegionIsRejected) {
  Fixture fx;
  const std::int64_t align =
      fx.design.config.memory_port_elems *
      static_cast<std::int64_t>(fx.design.config.ElementBytes());
  std::vector<MemoryRegion> regions = fx.design.memory_map.regions();
  bool grown = false;
  for (MemoryRegion& r : regions) {
    if (grown) r.base += align;  // keep successors overlap-free
    if (!grown && r.name == "weights:conv1") {
      r.bytes += align;
      grown = true;
    }
  }
  ASSERT_TRUE(grown);
  fx.design.memory_map = MemoryMap::FromRegions(std::move(regions));
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  EXPECT_THROW(DecodeWeights(image, fx.net, fx.design), Error);
}

TEST(SystemSim, PaddedWeightRegionWithinOneBeatStillDecodes) {
  // The MemoryMap rounds every region up to the port alignment, so a
  // fully-consumed region can legitimately keep < one beat of padding.
  const Fixture fx;
  const MemoryImage image = BuildMemoryImage(
      fx.net, fx.design, fx.weights,
      {{"data", Tensor(Shape{1, 12, 12})}});
  EXPECT_NO_THROW(DecodeWeights(image, fx.net, fx.design));
}

// The one invocation API: the provisioned host image plus a
// SystemContext on it, with energy from the power model.
TEST(SystemContext, RunMatchesFunctionalSimulation) {
  const Fixture fx;
  MemoryImage image = BuildHostImage(fx.net, fx.design, fx.weights);
  const SystemContext context(fx.net, fx.design, image);
  const Tensor input = fx.RandomInput(7);
  const SystemRunResult run = context.Run(image, input);

  FunctionalSimulator direct(fx.net, fx.design, fx.weights);
  EXPECT_LT(MaxAbsDiff(run.output, direct.Run(input)),
            2 * fx.design.config.format.resolution());
  EXPECT_GT(run.perf.total_cycles, 0);
  EXPECT_GT(run.perf.TotalSeconds(), 0.0);
  EXPECT_GT(EstimateEnergy(fx.design.resources.total, run.perf,
                           DeviceCatalog("zynq-7045"))
                .total_joules,
            0.0);
}

TEST(SystemContext, WarmRunsAreCheaperThanCold) {
  const Fixture fx(ZooModel::kCifar);  // weights fit the on-chip buffer
  MemoryImage image = BuildHostImage(fx.net, fx.design, fx.weights);
  const SystemContext context(fx.net, fx.design, image);
  const SystemRunResult cold = context.Run(image, fx.RandomInput(10));
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    const SystemRunResult warm =
        context.Run(image, fx.RandomInput(seed), /*warm=*/true);
    EXPECT_LT(warm.perf.total_cycles, cold.perf.total_cycles);
  }
}

TEST(SystemContext, BatchOutputsMatchSingleInference) {
  const Fixture fx(ZooModel::kAnn1Jpeg);
  MemoryImage batch_image = BuildHostImage(fx.net, fx.design, fx.weights);
  MemoryImage single_image = batch_image;
  const SystemContext batch(fx.net, fx.design, batch_image);
  const SystemContext single(fx.net, fx.design, single_image);
  for (int i = 0; i < 3; ++i) {
    const Tensor input = fx.RandomInput(50 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(batch.Run(batch_image, input, /*warm=*/i > 0).output.storage(),
              single.Run(single_image, input).output.storage())
        << "input " << i;
  }
}

std::uint64_t ImageDigest(const MemoryImage& image) {
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(image.data()),
                                  static_cast<std::size_t>(image.size())));
}

// A batch-major pass equals the same requests run one at a time, on
// every zoo model under every kernel backend: outputs, and the image
// bytes after the pass against the image after the single runs.  The
// batches of 1, 2, 3 and 5 give the FC kernel every group size from 1
// to 4 and a batch that splits into two groups (4 + 1).
TEST(SystemContext, RunBatchEqualsRuns) {
  struct BackendGuard {
    ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
  } guard;
  const std::vector<sim::KernelBackend> backends = sim::AvailableBackends();
  constexpr std::size_t kMaxBatch = 5;
  for (const ZooModel model : AllZooModels()) {
    SCOPED_TRACE(ZooModelName(model));
    const Fixture fx(model);
    const MemoryImage provisioned =
        BuildHostImage(fx.net, fx.design, fx.weights);
    std::vector<Tensor> inputs;
    std::vector<const Tensor*> ptrs;
    for (std::size_t i = 0; i < kMaxBatch; ++i)
      inputs.push_back(fx.RandomInput(900 + i));
    for (const Tensor& input : inputs) ptrs.push_back(&input);

    // The single runs, and the image digest after each of them.
    MemoryImage single_image = provisioned;
    const SystemContext single(fx.net, fx.design, single_image);
    std::vector<Tensor> want;
    std::vector<std::uint64_t> digest_after;
    for (const Tensor& input : inputs) {
      want.push_back(single.Run(single_image, input).output);
      digest_after.push_back(ImageDigest(single_image));
    }

    for (const sim::KernelBackend backend : backends) {
      SCOPED_TRACE(sim::KernelBackendName(backend));
      sim::SetKernelBackend(backend);
      MemoryImage batch_image = provisioned;
      const SystemContext batch(fx.net, fx.design, batch_image);
      for (const std::size_t n : {1u, 2u, 3u, 5u}) {
        batch_image = provisioned;
        const std::vector<Tensor> got = batch.RunBatch(
            batch_image, std::span<const Tensor* const>(ptrs.data(), n));
        ASSERT_EQ(got.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(got[i].storage(), want[i].storage())
              << "batch " << n << " image " << i;
        EXPECT_EQ(ImageDigest(batch_image), digest_after[n - 1])
            << "image bytes after a batch of " << n;
      }
    }
  }
}

TEST(Trace, RecordsBusyIntervals) {
  const Fixture fx(ZooModel::kCifar);
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  const PerfResult perf = SimulatePerformance(fx.net, fx.design, opts);
  EXPECT_EQ(trace.total_cycles, perf.total_cycles);
  EXPECT_FALSE(trace.events.empty());
  for (const TraceEvent& e : trace.events) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GE(e.start, 0);
    EXPECT_LE(e.end, trace.total_cycles);
  }
}

TEST(Trace, ResourceIntervalsDoNotOverlap) {
  const Fixture fx;
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  for (TraceEvent::Resource res :
       {TraceEvent::Resource::kDram, TraceEvent::Resource::kDatapath}) {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    for (const TraceEvent& e : trace.events)
      if (e.resource == res) spans.emplace_back(e.start, e.end);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first)
          << "overlap at interval " << i;
  }
}

TEST(Trace, UtilizationBetweenZeroAndOne) {
  const Fixture fx(ZooModel::kCifar);
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  for (TraceEvent::Resource res :
       {TraceEvent::Resource::kDram, TraceEvent::Resource::kDatapath}) {
    const double u = trace.Utilization(res);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  // A compute-bound design keeps the datapath busier than the channel.
  EXPECT_GT(trace.Utilization(TraceEvent::Resource::kDatapath),
            trace.Utilization(TraceEvent::Resource::kDram));
}

TEST(Trace, VcdWellFormed) {
  const Fixture fx;
  PerfTrace trace;
  PerfOptions opts;
  opts.trace = &trace;
  SimulatePerformance(fx.net, fx.design, opts);
  const std::string vcd = WriteVcd(trace);
  EXPECT_NE(vcd.find("$timescale 10ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("dram_busy"), std::string::npos);
  EXPECT_NE(vcd.find("datapath_busy"), std::string::npos);
  // Toggles balance: equal numbers of rises and falls per wire.
  auto count = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = vcd.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count("\n1d"), count("\n0d") - 1);  // initial 0d at time 0
  EXPECT_EQ(count("\n1p"), count("\n0p") - 1);
}

TEST(Trace, EmptyTraceStillValidVcd) {
  PerfTrace trace;
  trace.total_cycles = 10;
  const std::string vcd = WriteVcd(trace);
  EXPECT_NE(vcd.find("#10"), std::string::npos);
  EXPECT_EQ(trace.Utilization(TraceEvent::Resource::kDram), 0.0);
}

}  // namespace
}  // namespace db
