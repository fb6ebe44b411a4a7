// Differential test harness (`ctest -L differential`): seeded random
// small networks are pushed through every execution path the repo
// offers and the paths are compared against each other.
//
//   * nn::Executor          float reference ("golden")
//   * FunctionalSimulator   bit-accurate fixed-point datapath
//   * SystemContext         full DRAM-image round trip
//   * DesignCache           the memoized generator handle, and the
//                           design a fresh cache rebuilds on a disk hit
//   * InferenceServer       1-replica and 4-replica pools
//
// The contracts, in decreasing strictness:
//   1. All fixed-point paths that share the image pipeline
//      (SystemContext with the original / disk-hit-rebuilt /
//      cache-returned design, and every server replica configuration)
//      are BIT-exact.
//   2. FunctionalSimulator vs SystemContext differ by at most the output
//      blob's one extra quantise (2 LSBs, the system_sim contract).
//   3. The fixed-point result tracks the float golden within a
//      quantization envelope that scales with the accumulation depth.
//
// The networks are generated from a seed, so a failure names the seed
// and is replayed exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cluster/design_cache.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "fault/fault_plan.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "nn/executor.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"
#include "sim/kernels.h"

namespace db {
namespace {

// ----------------------------------------------------- script generator

/// A random small network: optional 3x3 conv, optional 2x2 max pool,
/// optional mid activation, an FC reduction, and a bounded output
/// activation — the conv/pool/FC/activation mixes the datapath serves.
std::string RandomScript(std::uint64_t seed) {
  Rng rng(seed);
  const int channels = 1 + static_cast<int>(rng.UniformInt(2));
  const int side = 6 + 2 * static_cast<int>(rng.UniformInt(2));

  std::string s = "name: \"diff_" + std::to_string(seed) + "\"\n";
  s += "input: \"data\"\ninput_dim: 1\ninput_dim: " +
       std::to_string(channels) + "\ninput_dim: " + std::to_string(side) +
       "\ninput_dim: " + std::to_string(side) + "\n";

  std::string bottom = "data";
  int spatial = side;
  if (rng.Bernoulli(0.7)) {
    const int num_output = 2 + static_cast<int>(rng.UniformInt(3));
    s += "layers { name: \"conv\" type: CONVOLUTION bottom: \"" + bottom +
         "\" top: \"conv\" convolution_param { num_output: " +
         std::to_string(num_output) +
         " kernel_size: 3 stride: 1 } }\n";
    bottom = "conv";
    spatial -= 2;
  }
  if (spatial >= 4 && rng.Bernoulli(0.5)) {
    s += "layers { name: \"pool\" type: POOLING bottom: \"" + bottom +
         "\" top: \"pool\" pooling_param { pool: MAX kernel_size: 2 "
         "stride: 2 } }\n";
    bottom = "pool";
  }
  if (rng.Bernoulli(0.5)) {
    s += "layers { name: \"act0\" type: RELU bottom: \"" + bottom +
         "\" top: \"act0\" }\n";
    bottom = "act0";
  }
  const int fc_out = 2 + static_cast<int>(rng.UniformInt(5));
  s += "layers { name: \"fc\" type: INNER_PRODUCT bottom: \"" + bottom +
       "\" top: \"fc\" inner_product_param { num_output: " +
       std::to_string(fc_out) + " } }\n";
  const char* kActs[] = {"RELU", "SIGMOID", "TANH"};
  s += std::string("layers { name: \"out\" type: ") +
       kActs[rng.UniformInt(3)] + " bottom: \"fc\" top: \"out\" }\n";
  return s;
}

Tensor RandomInput(const Network& net, std::uint64_t seed) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  Tensor t(Shape{s.channels, s.height, s.width});
  Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

// ------------------------------------------------------- the harness

constexpr std::uint64_t kSeeds[] = {11, 23, 37, 41, 59};

TEST(Differential, RandomNetworksAgreeAcrossAllPaths) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NetworkDef def = ParseNetworkDef(RandomScript(seed));
    const Network net = Network::Build(def);
    const DesignConstraint constraint = DbConstraint();

    // The cache path IS the generator path: the first call generates
    // and persists; a fresh cache over the same directory rebuilds the
    // design from the entry's recorded sizing.
    cluster::DesignCache::Options options;
    options.directory = (std::filesystem::path(::testing::TempDir()) /
                         ("db_differential_" + std::to_string(seed)))
                            .string();
    std::filesystem::remove_all(options.directory);
    const cluster::DesignKey key = cluster::MakeDesignKey(def, constraint);
    const AcceleratorDesign design =
        cluster::DesignCache(options).GetOrGenerate(key, net, constraint);
    cluster::DesignCache cold(options);
    const std::optional<AcceleratorDesign> rebuilt = cold.Lookup(key);
    std::filesystem::remove_all(options.directory);
    ASSERT_TRUE(rebuilt.has_value());
    ASSERT_EQ(cold.stats().disk_hits, 1);

    Rng rng(seed * 1000 + 1);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const Tensor input = RandomInput(net, seed * 1000 + 2);

    // Path 1: float golden.
    Executor exec(net, weights);
    const Tensor golden = exec.ForwardOutput(input);

    // Path 2: bit-accurate functional simulation — original design and
    // the disk-hit design must agree BIT for bit.
    FunctionalSimulator sim(net, design, weights);
    const Tensor functional = sim.Run(input);
    FunctionalSimulator sim_rebuilt(net, *rebuilt, weights);
    EXPECT_EQ(functional.storage(), sim_rebuilt.Run(input).storage());

    // Path 3: the full DRAM-image round trip, again for both designs.
    MemoryImage image_a = BuildHostImage(net, design, weights);
    MemoryImage image_b = BuildHostImage(net, *rebuilt, weights);
    const Tensor system =
        SystemContext(net, design, image_a).Run(image_a, input).output;
    const Tensor system_rebuilt =
        SystemContext(net, *rebuilt, image_b).Run(image_b, input).output;
    EXPECT_EQ(system.storage(), system_rebuilt.storage());

    // Contract 2: image round trip within one extra output quantise.
    const float resolution = design.config.format.resolution();
    EXPECT_LE(MaxAbsDiff(system, functional), 2 * resolution);

    // Contract 3: fixed point tracks the golden within a quantization
    // envelope proportional to the deepest accumulation fan-in.
    std::int64_t max_fan_in = 1;
    for (const IrLayer& layer : net.layers())
      for (const BlobShape& in : layer.input_shapes)
        max_fan_in = std::max(max_fan_in, in.NumElements());
    const float envelope =
        resolution * static_cast<float>(max_fan_in) + 16 * resolution;
    EXPECT_LE(MaxAbsDiff(functional, golden), envelope);
  }
}

TEST(Differential, ServerReplicasMatchTheStandaloneSystemPath) {
  const std::uint64_t seed = kSeeds[0];
  const NetworkDef def = ParseNetworkDef(RandomScript(seed));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const AcceleratorDesign design = GenerateAccelerator(net, constraint);
  Rng rng(77);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);

  constexpr int kRequests = 8;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(RandomInput(net, 300 + static_cast<std::uint64_t>(i)));

  // Standalone reference: one context per request, fresh image each
  // time (a request must not observe a sibling's blob writes).
  std::vector<Tensor> reference;
  for (const Tensor& input : inputs) {
    MemoryImage image = BuildHostImage(net, design, weights);
    reference.push_back(
        SystemContext(net, design, image).Run(image, input).output);
  }

  auto serve = [&](int replicas) {
    serve::ServeOptions options;
    options.replicas = replicas;
    options.max_batch_size = 2;
    options.linger_cycles = 0;
    serve::InferenceServer server(net, design, weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 25;
    }
    return server.Drain();
  };

  const std::vector<serve::ServedRequest> one = serve(1);
  const std::vector<serve::ServedRequest> four = serve(4);
  ASSERT_EQ(one.size(), static_cast<std::size_t>(kRequests));
  ASSERT_EQ(four.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(one[idx].status, StatusCode::kOk);
    ASSERT_EQ(four[idx].status, StatusCode::kOk);
    // Replica count is a wall-clock knob, never a numerics knob.
    EXPECT_EQ(one[idx].output.storage(), four[idx].output.storage());
    EXPECT_EQ(one[idx].output.storage(), reference[idx].storage());
  }
}

// --------------------------------------------- tuned vs default designs

/// The tuner's semantics-preservation guarantee: `deepburning tune`
/// only moves implementation knobs (lane count, port width, buffer
/// split, multiplier substrate) while the fixed-point format stays
/// pinned by the constraint — so the tuned winner's functional-sim
/// outputs are BIT-identical to the default design's, for every
/// objective.  A tuner that bought latency by changing numerics would
/// fail here, not in a tolerance band.
TEST(Differential, TuneWinnerMatchesDefaultDesignBitExact) {
  for (const ZooModel model :
       {ZooModel::kAnn1Jpeg, ZooModel::kHopfield, ZooModel::kMnist}) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = BuildZooModel(model);
    const DesignConstraint constraint = DbConstraint();
    const AcceleratorDesign standard =
        GenerateAccelerator(net, constraint);
    const AcceleratorConfig base = SizeDatapath(net, constraint);

    Rng rng(909);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const Tensor input = RandomInput(net, 910);
    const Tensor reference =
        FunctionalSimulator(net, standard, weights).Run(input);

    for (const dse::Objective objective :
         {dse::Objective::kLatency, dse::Objective::kEnergy,
          dse::Objective::kBalanced}) {
      SCOPED_TRACE(dse::ObjectiveName(objective));
      dse::TuneOptions options;
      options.objective = objective;
      options.jobs = 4;
      const dse::TuneResult result =
          dse::Explore(net, constraint, options);
      const AcceleratorDesign tuned = dse::CompileWinner(
          net, constraint, base,
          result.candidates[result.winner].spec);
      const Tensor tuned_out =
          FunctionalSimulator(net, tuned, weights).Run(input);
      EXPECT_EQ(reference.storage(), tuned_out.storage());
    }
  }
}

// ------------------------------------------- SIMD vs scalar bit-identity

/// Restores the process-wide kernel backend on scope exit.
struct BackendGuard {
  ~BackendGuard() { sim::SetKernelBackend(sim::KernelBackend::kAuto); }
};

/// The SIMD backends this host can run, each compared against scalar.
std::vector<sim::KernelBackend> SimdBackends() {
  std::vector<sim::KernelBackend> simd = sim::AvailableBackends();
  simd.erase(simd.begin());  // scalar comes first
  return simd;
}

/// The kernel layer's headline contract: every SIMD backend is bit-exact
/// against the scalar reference over the entire model zoo (every layer
/// kind the datapath serves: conv stride 1 and strided, pooling, FC,
/// LRN, recurrent/LSTM, every activation), and over the seeded random
/// networks above.
TEST(Differential, SimdAndScalarKernelsBitIdenticalAcrossZoo) {
  const std::vector<sim::KernelBackend> simd = SimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD kernels available on this host";
  BackendGuard guard;
  const auto check = [&](const Network& net, const AcceleratorDesign& design,
                         const WeightStore& weights, const Tensor& input) {
    sim::SetKernelBackend(sim::KernelBackend::kScalar);
    const Tensor scalar_out =
        FunctionalSimulator(net, design, weights).Run(input);
    for (const sim::KernelBackend backend : simd) {
      SCOPED_TRACE(sim::KernelBackendName(backend));
      sim::SetKernelBackend(backend);
      const Tensor simd_out =
          FunctionalSimulator(net, design, weights).Run(input);
      EXPECT_EQ(scalar_out.storage(), simd_out.storage());
    }
  };
  for (const ZooModel model : AllZooModels()) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    check(net, design, weights, RandomInput(net, 4242));
  }
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Network net =
        Network::Build(ParseNetworkDef(RandomScript(seed)));
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(seed * 1000 + 1);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    check(net, design, weights, RandomInput(net, seed * 1000 + 2));
  }
}

/// Committed FNV-1a digests of every zoo model's functional output, at
/// every layer (RunAll, in layer order: name, then the float bytes of
/// the dequantised activation), for fixed weight and input seeds.  Both
/// backends must reproduce them, so a kernel or loop-nest change that
/// moves any activation of any model fails here across commits, not
/// only between two backends of one binary.
TEST(Differential, ZooOutputsArePinned) {
  struct Pin {
    ZooModel model;
    const char* digest;
  };
  const Pin kPins[] = {
      {ZooModel::kAnn0Fft, "e4aa4fd5d566e6ce"},
      {ZooModel::kAnn1Jpeg, "592e4e733e385d29"},
      {ZooModel::kAnn2Kmeans, "e300614dcf92d705"},
      {ZooModel::kHopfield, "1f395c3b12670f28"},
      {ZooModel::kCmac, "d2ff6d8294638daa"},
      {ZooModel::kMnist, "97a1b73d61ac0c2b"},
      {ZooModel::kAlexnet, "ce769a3d24232da6"},
      {ZooModel::kNin, "daf5e3e7ceb28809"},
      {ZooModel::kCifar, "ce5da59c26cd1032"},
  };
  ASSERT_EQ(std::size(kPins), AllZooModels().size());
  BackendGuard guard;
  const std::vector<sim::KernelBackend> backends = sim::AvailableBackends();
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(ZooModelName(pin.model));
    const Network net = BuildZooModel(pin.model);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    const Tensor input = RandomInput(net, 4242);
    for (const sim::KernelBackend backend : backends) {
      SCOPED_TRACE(sim::KernelBackendName(backend));
      sim::SetKernelBackend(backend);
      const std::map<std::string, Tensor> acts =
          FunctionalSimulator(net, design, weights).RunAll(input);
      std::uint64_t h = kFnvOffsetBasis;
      for (const IrLayer& layer : net.layers()) {
        const std::vector<float>& v = acts.at(layer.name()).storage();
        h = Fnv1a64(layer.name(), h);
        h = Fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                     v.size() * sizeof(float)),
                    h);
      }
      EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(h)),
                pin.digest);
    }
  }
}

/// Bit-identity must also hold under the fault campaign: flipped weight
/// bits, transient failures and stalls perturb the data and the
/// scheduling, and every completed request must still agree between
/// backends (fault handling is orthogonal to the kernel layer).
TEST(Differential, SimdAndScalarAgreeUnderFaultCampaign) {
  const std::vector<sim::KernelBackend> simd = SimdBackends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD kernels available on this host";
  BackendGuard guard;
  constexpr int kRequests = 24;
  const Network net = BuildZooModel(ZooModel::kMnist);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(RandomInput(net, 700 + static_cast<std::uint64_t>(i)));

  fault::FaultCampaignSpec spec;
  spec.seed = 7;
  spec.weight_flips = 60;
  spec.transients = 4;
  spec.stalls = 2;
  spec.invocation_span = kRequests / 2;
  spec.workers = 2;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(spec, design.memory_map);

  auto serve = [&]() {
    serve::ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 4;
    options.faults = plan;
    serve::InferenceServer server(net, design, weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    return server.Drain();
  };

  sim::SetKernelBackend(sim::KernelBackend::kScalar);
  const std::vector<serve::ServedRequest> scalar_run = serve();
  for (const sim::KernelBackend backend : simd) {
    SCOPED_TRACE(sim::KernelBackendName(backend));
    sim::SetKernelBackend(backend);
    const std::vector<serve::ServedRequest> simd_run = serve();
    ASSERT_EQ(scalar_run.size(), simd_run.size());
    for (std::size_t i = 0; i < scalar_run.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(scalar_run[i].status, simd_run[i].status);
      if (scalar_run[i].status != StatusCode::kOk) continue;
      EXPECT_EQ(scalar_run[i].output.storage(),
                simd_run[i].output.storage());
    }
  }
}

}  // namespace
}  // namespace db
