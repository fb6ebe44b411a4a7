// Tests for src/cluster and replication: the ShardRouter policies,
// ReplicateSystem's private replica images, the content-addressed
// DesignCache and the binary design codec it persists through
// (core/design_serde).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/rtl_verifier.h"
#include "cluster/design_cache.h"
#include "cluster/shard_router.h"
#include "common/error.h"
#include "common/hash.h"
#include "core/design_json.h"
#include "core/design_serde.h"
#include "core/generator.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rtl/verilog.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

using cluster::DesignCache;
using cluster::DesignKey;
using cluster::MakeDesignKey;
using cluster::RouterPolicy;
using cluster::ShardRouter;

// ---------------------------------------------------------------- router

TEST(ShardRouter, PolicyNamesRoundTrip) {
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kHashAffinity})
    EXPECT_EQ(cluster::ParseRouterPolicy(cluster::RouterPolicyName(policy)),
              policy);
  EXPECT_THROW(cluster::ParseRouterPolicy("bogus"), Error);
}

TEST(ShardRouter, RoundRobinCyclesThroughReplicas) {
  ShardRouter router(RouterPolicy::kRoundRobin, 3);
  const std::vector<std::int64_t> free_cycle{100, 0, 50};
  for (int expect : {0, 1, 2, 0, 1, 2, 0})
    EXPECT_EQ(router.Route(free_cycle), expect);  // load is ignored
}

TEST(ShardRouter, LeastLoadedPicksEarliestFreeLowestIndex) {
  ShardRouter router(RouterPolicy::kLeastLoaded, 4);
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{40, 10, 30, 20}), 1);
  // Ties break towards the lowest index, so placement is deterministic.
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{10, 10, 10, 10}), 0);
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{50, 20, 20, 90}), 1);
}

TEST(ShardRouter, HashAffinityPinsOneReplica) {
  ShardRouter router(RouterPolicy::kHashAffinity, 4, /*affinity_hash=*/7);
  const std::vector<std::int64_t> free_cycle{0, 0, 0, 0};
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(router.Route(free_cycle), 3);  // 7 % 4, regardless of load
}

TEST(ShardRouter, RejectsMismatchedFreeCycleVector) {
  ShardRouter router(RouterPolicy::kLeastLoaded, 2);
  EXPECT_THROW(router.Route(std::vector<std::int64_t>{0, 0, 0}),
               std::logic_error);
}

// ------------------------------------------------------------ replicas

struct GeneratedFixture {
  GeneratedFixture()
      : def(ParseNetworkDef(ZooModelPrototxt(ZooModel::kAnn0Fft))),
        net(Network::Build(def)),
        constraint(DbConstraint()),
        design(GenerateAccelerator(net, constraint)) {}

  NetworkDef def;
  Network net;
  DesignConstraint constraint;
  AcceleratorDesign design;
};

GeneratedFixture& Fixture() {
  static GeneratedFixture* fixture = new GeneratedFixture;
  return *fixture;
}

Tensor FixtureInput(const Network& net, std::uint64_t seed) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  Tensor t(Shape{s.channels, s.height, s.width});
  Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

TEST(ReplicateSystem, ReplicasProduceBitIdenticalOutputs) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  std::vector<SystemReplica> replicas =
      ReplicateSystem(fx.net, fx.design, provisioned, 3);
  ASSERT_EQ(replicas.size(), 3u);

  const Tensor input = FixtureInput(fx.net, 42);
  std::vector<Tensor> outputs;
  for (SystemReplica& replica : replicas)
    outputs.push_back(replica.context->Run(replica.image, input).output);
  ASSERT_GT(outputs[0].size(), 0);
  EXPECT_EQ(outputs[0].storage(), outputs[1].storage());
  EXPECT_EQ(outputs[0].storage(), outputs[2].storage());
}

TEST(ReplicateSystem, FaultOnOneReplicaDoesNotPerturbSiblings) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  std::vector<SystemReplica> replicas =
      ReplicateSystem(fx.net, fx.design, provisioned, 2);
  // Corrupt replica 0's private image; replica 1's bytes must be
  // untouched (private copies, never shared).
  replicas[0].image.FlipBit(0, 3);
  const auto same_bytes = [](const MemoryImage& a, const MemoryImage& b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  };
  EXPECT_FALSE(same_bytes(replicas[0].image, replicas[1].image));
  EXPECT_TRUE(same_bytes(replicas[1].image, provisioned));
}

// ----------------------------------------------------------- design key

TEST(DesignCache, KeyIsStableAcrossScriptFieldReordering) {
  // Two scripts that differ only in field order inside blocks must
  // canonicalize to the same key: the digest hashes the canonical
  // serialisation, not the authored bytes.
  const char* kOrdered = R"(
name: "tiny"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 8
input_dim: 8
layers {
  name: "fc1"
  type: INNER_PRODUCT
  bottom: "data"
  top: "fc1"
  inner_product_param {
    num_output: 4
  }
}
)";
  const char* kReordered = R"(
name: "tiny"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 8
input_dim: 8
layers {
  top: "fc1"
  bottom: "data"
  type: INNER_PRODUCT
  inner_product_param {
    num_output: 4
  }
  name: "fc1"
}
)";
  const NetworkDef a = ParseNetworkDef(kOrdered);
  const NetworkDef b = ParseNetworkDef(kReordered);
  const DesignConstraint constraint;
  const DesignKey ka = MakeDesignKey(a, constraint);
  const DesignKey kb = MakeDesignKey(b, constraint);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(NetworkDefDigest(a), NetworkDefDigest(b));
}

TEST(DesignCache, KeySeparatesNetworkAndConstraint) {
  GeneratedFixture& fx = Fixture();
  DesignConstraint other = fx.constraint;
  other.bit_width = 8;
  other.frac_bits = 4;
  const DesignKey a = MakeDesignKey(fx.def, fx.constraint);
  const DesignKey b = MakeDesignKey(fx.def, other);
  EXPECT_NE(a.canonical, b.canonical);
  EXPECT_NE(a.hash, b.hash);
  EXPECT_EQ(cluster::DesignKeyHex(a).size(), 16u);
}

// --------------------------------------------------------------- cache

TEST(DesignCache, HitSkipsTheGenerator) {
  GeneratedFixture& fx = Fixture();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  DesignCache::Options options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  DesignCache cache(options);
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);

  const auto first = cache.GetOrGenerate(key, fx.net, fx.constraint,
                                         &tracer);
  const std::int64_t toolchain_end = tracer.TrackEnd("toolchain");
  EXPECT_GT(toolchain_end, 0);  // the miss ran the generator phases
  EXPECT_EQ(metrics.CounterValue("cluster.cache.miss"), 1);

  const auto second = cache.GetOrGenerate(key, fx.net, fx.constraint,
                                          &tracer);
  // Same immutable object, and not a single new toolchain span: the
  // generator did not run again.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(tracer.TrackEnd("toolchain"), toolchain_end);
  EXPECT_EQ(metrics.CounterValue("cluster.cache.hit"), 1);

  // The lookup outcomes are spans on the "cluster" track.
  int cluster_spans = 0;
  for (const obs::Span& span : tracer.Sorted())
    if (span.track == "cluster") ++cluster_spans;
  EXPECT_EQ(cluster_spans, 2);  // one miss + one hit
}

TEST(DesignCache, ForgedHashCollisionIsRejectedByFullCompare) {
  GeneratedFixture& fx = Fixture();
  DesignCache cache;
  const DesignKey real = MakeDesignKey(fx.def, fx.constraint);
  cache.Insert(real, fx.design);

  // Same digest, different canonical content: the bucket matches but
  // the full-key compare must refuse to alias.
  DesignKey forged;
  forged.hash = real.hash;
  forged.canonical = real.canonical + "\n# not the same network\n";
  EXPECT_EQ(cache.Lookup(forged), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);

  // Both keys coexist in the bucket without clobbering each other.
  cache.Insert(forged, fx.design);
  EXPECT_NE(cache.Lookup(real), nullptr);
  EXPECT_NE(cache.Lookup(forged), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DesignCache, LruEvictsTheColdestEntry) {
  GeneratedFixture& fx = Fixture();
  DesignCache::Options options;
  options.capacity = 2;
  DesignCache cache(options);

  auto forge = [](std::uint64_t hash, const char* canonical) {
    DesignKey key;
    key.hash = hash;
    key.canonical = canonical;
    return key;
  };
  const DesignKey k1 = forge(1, "one");
  const DesignKey k2 = forge(2, "two");
  const DesignKey k3 = forge(3, "three");
  const auto d1 = cache.Insert(k1, fx.design);
  cache.Insert(k2, fx.design);
  EXPECT_NE(cache.Lookup(k1), nullptr);  // refresh k1: k2 is now coldest
  cache.Insert(k3, fx.design);           // evicts k2
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  // Eviction never invalidates a handle a caller still holds.
  EXPECT_GT(DesignToJson(*d1).size(), 0u);
}

TEST(DesignCache, DiskPersistenceSurvivesANewCacheInstance) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_test";
  std::filesystem::remove_all(dir);
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);

  {
    DesignCache::Options options;
    options.directory = dir.string();
    DesignCache cache(options);
    cache.GetOrGenerate(key, fx.net, fx.constraint);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().disk_writes, 1);
  }

  // A fresh cache (new process, conceptually) warm-starts from disk —
  // the acceptance criterion's "repeat invocations skip NN-Gen".
  DesignCache::Options options;
  options.directory = dir.string();
  DesignCache cache(options);
  const auto loaded = cache.Lookup(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(cache.stats().disk_hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(DesignToJson(*loaded), DesignToJson(fx.design));
  EXPECT_EQ(EmitVerilog(loaded->rtl), EmitVerilog(fx.design.rtl));

  // A corrupt entry degrades to a miss, never a wrong design.
  std::filesystem::remove_all(dir);
}

// Regression: the load path's RTL check accepted a zero or negative
// port width, so such an entry was served.  It is now rejected and the
// generator builds the design again.
TEST(DesignCache, NonPositiveRtlWidthEntryIsRejectedOnLoad) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_width_test";
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);
  for (int width : {0, -5}) {
    std::filesystem::remove_all(dir);
    obs::MetricsRegistry metrics;
    DesignCache::Options options;
    options.directory = dir.string();
    options.metrics = &metrics;

    AcceleratorDesign broken = fx.design;
    int edited = 0;
    for (VModule& m : broken.rtl.modules)
      for (VPort& p : m.ports)
        if (m.name == broken.rtl.top && p.name == "axi_araddr") {
          p.width = width;
          ++edited;
        }
    ASSERT_EQ(edited, 1);
    DesignCache(options).Insert(key, broken);

    obs::Tracer tracer;
    DesignCache cold(options);
    const auto design =
        cold.GetOrGenerate(key, fx.net, fx.constraint, &tracer);
    EXPECT_EQ(metrics.CounterValue("cluster.cache.verify_reject"), 1)
        << "width " << width;
    EXPECT_EQ(cold.stats().disk_hits, 0);
    EXPECT_GT(tracer.TrackEnd("toolchain"), 0);  // the generator ran
    ASSERT_NE(design, nullptr);
    EXPECT_TRUE(analysis::VerifyRtl(design->rtl).ok());
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- design serde

TEST(DesignSerde, RoundTripPreservesTheWholeDesign) {
  GeneratedFixture& fx = Fixture();
  const std::string bytes = SerializeDesign(fx.design);
  const AcceleratorDesign copy = DeserializeDesign(bytes);
  // The JSON export and the emitted RTL cover every field the design
  // bundle publishes; byte equality on both is the round-trip contract.
  EXPECT_EQ(DesignToJson(copy), DesignToJson(fx.design));
  EXPECT_EQ(EmitVerilog(copy.rtl), EmitVerilog(fx.design.rtl));
  EXPECT_EQ(copy.schedule.ToString(), fx.design.schedule.ToString());
  EXPECT_EQ(copy.memory_map.ToString(), fx.design.memory_map.ToString());
  EXPECT_EQ(copy.agu_program.ToString(), fx.design.agu_program.ToString());
}

TEST(DesignSerde, RoundTrippedDesignSimulatesBitIdentically) {
  GeneratedFixture& fx = Fixture();
  const AcceleratorDesign copy =
      DeserializeDesign(SerializeDesign(fx.design));
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  MemoryImage image_a = BuildHostImage(fx.net, fx.design, weights);
  MemoryImage image_b = BuildHostImage(fx.net, copy, weights);
  const Tensor input = FixtureInput(fx.net, 7);
  const Tensor out_a =
      RunSystem(fx.net, fx.design, image_a, input).output;
  const Tensor out_b = RunSystem(fx.net, copy, image_b, input).output;
  EXPECT_EQ(out_a.storage(), out_b.storage());
}

TEST(DesignSerde, RejectsCorruptPayloads) {
  GeneratedFixture& fx = Fixture();
  const std::string bytes = SerializeDesign(fx.design);
  EXPECT_THROW(DeserializeDesign(bytes.substr(0, bytes.size() / 2)),
               Error);                                   // truncated
  EXPECT_THROW(DeserializeDesign(bytes + "x"), Error);   // trailing bytes
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW(DeserializeDesign(wrong_magic), Error);   // bad magic
  EXPECT_THROW(DeserializeDesign(std::string()), Error); // empty
}

TEST(Fnv1a, MatchesKnownVectors) {
  // Reference values for the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(Fnv1a64("foobar"), 9625390261332436968ull);
}

}  // namespace
}  // namespace db
