// Property-based fuzzing: random feed-forward networks must survive the
// whole pipeline — build, generate within budget, verified RTL,
// schedule/fold invariants, and fixed-point execution that tracks the
// float reference.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/rtl_verifier.h"
#include "core/generator.h"
#include "nn/executor.h"
#include "models/zoo.h"
#include "sim/functional_sim.h"
#include "sim/perf_model.h"

namespace db {
namespace {

/// Generate a random but valid conv/pool/fc/activation network.
std::string RandomNetworkScript(Rng& rng) {
  std::ostringstream os;
  std::int64_t c = 1 + static_cast<std::int64_t>(rng.UniformInt(3));
  std::int64_t hw = 6 + static_cast<std::int64_t>(rng.UniformInt(11));
  os << "name: \"fuzz\"\ninput: \"data\"\ninput_dim: 1\ninput_dim: " << c
     << "\ninput_dim: " << hw << "\ninput_dim: " << hw << "\n";

  std::string bottom = "data";
  int layer_idx = 0;
  auto name = [&](const char* prefix) {
    return std::string(prefix) + std::to_string(layer_idx++);
  };

  // Convolutional front (0-3 stages).
  const int conv_stages = static_cast<int>(rng.UniformInt(4));
  for (int s = 0; s < conv_stages && hw >= 4; ++s) {
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.UniformInt(3));
    if (hw < k) break;
    const std::int64_t out_c =
        1 + static_cast<std::int64_t>(rng.UniformInt(8));
    const bool pad = rng.Bernoulli(0.5) && k > 1;
    const std::string conv = name("conv");
    os << "layers { name: \"" << conv << "\" type: CONVOLUTION bottom: \""
       << bottom << "\" top: \"" << conv
       << "\" convolution_param { num_output: " << out_c
       << " kernel_size: " << k << " stride: 1";
    if (pad) os << " pad: " << (k / 2);
    os << " } }\n";
    bottom = conv;
    hw = pad ? hw - k + 1 + 2 * (k / 2) : hw - k + 1;
    c = out_c;

    if (rng.Bernoulli(0.7)) {
      const std::string act = name("act");
      const char* kind = rng.Bernoulli(0.5) ? "RELU" : "TANH";
      os << "layers { name: \"" << act << "\" type: " << kind
         << " bottom: \"" << bottom << "\" top: \"" << act << "\" }\n";
      bottom = act;
    }
    if (rng.Bernoulli(0.5) && hw >= 4) {
      const std::string pool = name("pool");
      const char* method = rng.Bernoulli(0.5) ? "MAX" : "AVE";
      os << "layers { name: \"" << pool << "\" type: POOLING bottom: \""
         << bottom << "\" top: \"" << pool << "\" pooling_param { pool: "
         << method << " kernel_size: 2 stride: 2 } }\n";
      bottom = pool;
      hw = (hw + 1) / 2;
    }
  }

  // FC tail (1-2 stages).
  const int fc_stages = 1 + static_cast<int>(rng.UniformInt(2));
  for (int s = 0; s < fc_stages; ++s) {
    const std::int64_t out_n =
        2 + static_cast<std::int64_t>(rng.UniformInt(15));
    const std::string fc = name("fc");
    os << "layers { name: \"" << fc << "\" type: INNER_PRODUCT bottom: \""
       << bottom << "\" top: \"" << fc
       << "\" inner_product_param { num_output: " << out_n << " } }\n";
    bottom = fc;
    if (s + 1 < fc_stages) {
      const std::string act = name("act");
      os << "layers { name: \"" << act << "\" type: SIGMOID bottom: \""
         << bottom << "\" top: \"" << act << "\" }\n";
      bottom = act;
    }
  }
  if (rng.Bernoulli(0.4)) {
    os << "layers { name: \"prob\" type: SOFTMAX bottom: \"" << bottom
       << "\" top: \"prob\" }\n";
  }
  return os.str();
}

class RandomNetworkSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomNetworkSweep, FullPipelineInvariants) {
  Rng rng(GetParam());
  const std::string script = RandomNetworkScript(rng);
  SCOPED_TRACE(script);

  // 1. Parses and builds.
  const Network net = Network::Build(ParseNetworkDef(script));
  ASSERT_FALSE(net.ComputeLayers().empty());

  // 2. Generates within budget with RTL that verifies clean.
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());
  EXPECT_TRUE(design.config.budget.Fits(design.resources.total));
  EXPECT_TRUE(analysis::VerifyRtl(design.rtl).ok());

  // 3. Fold/schedule invariants.
  EXPECT_EQ(design.schedule.entries.size(), design.fold_plan.folds.size());
  for (const LayerFold& fold : design.fold_plan.folds) {
    EXPECT_GE(fold.lanes_used, 1) << fold.layer_name;
    if (fold.pool == LanePool::kMac) {
      // MAC folds cover their units across coordinator segments.
      EXPECT_GE(fold.segments * fold.lanes_used, fold.parallel_units)
          << fold.layer_name;
    } else {
      // Streaming folds serialise into one segment's unit_work.
      EXPECT_EQ(fold.segments, 1) << fold.layer_name;
    }
  }

  // 4. Memory map covers every blob once, in bounds.
  std::int64_t prev_end = 0;
  for (const MemoryRegion& r : design.memory_map.regions()) {
    EXPECT_GE(r.base, prev_end) << r.name;
    prev_end = r.end();
  }

  // 5. Performance simulation terminates with positive cycle counts.
  const PerfResult perf = SimulatePerformance(net, design);
  EXPECT_GT(perf.total_cycles, 0);

  // 6. Fixed-point execution tracks the float reference.
  Rng wrng(GetParam() ^ 0xABCD);
  const WeightStore weights = WeightStore::CreateRandom(net, wrng);
  Executor exec(net, weights);
  FunctionalSimulator sim(net, design, weights);
  const BlobShape& in_shape =
      net.layer(net.input_ids().front()).output_shape;
  Tensor input(Shape{in_shape.channels, in_shape.height, in_shape.width});
  Rng in_rng(GetParam() ^ 0x1234);
  input.FillUniform(in_rng, 0.0f, 1.0f);
  const Tensor ref = exec.ForwardOutput(input);
  const Tensor fixed = sim.Run(input);
  ASSERT_EQ(ref.shape(), fixed.shape());
  EXPECT_LT(MaxAbsDiff(ref, fixed), 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace db
