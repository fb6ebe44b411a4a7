// Tests for src/cluster and replication: ReplicateSystem's copy-on-write
// replica images, and the content-addressed DesignCache with its on-disk
// entries (canonical text, the nine sized config fields, a checksum) and
// the disk-hit rebuild.  Least-loaded routing is the planner's and is
// tested through PlanServe in chaos_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/rtl_verifier.h"
#include "cluster/design_cache.h"
#include "common/error.h"
#include "common/hash.h"
#include "core/design_json.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "fault/fault_injector.h"
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
  MemoryImage provisioned =
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
  MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  const MemoryImage before = provisioned;  // an unsealed full copy
  std::vector<SystemReplica> replicas =
      ReplicateSystem(fx.net, fx.design, provisioned, 2);
  const auto same_bytes = [](const MemoryImage& a, const MemoryImage& b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  };
  // Corrupt replica 0's image in a weight region; replica 1 and the
  // provisioned image share its clean pages but must not see the write.
  std::int64_t weight_addr = -1;
  for (const MemoryRegion& r : fx.design.memory_map.regions())
    if (weight_addr < 0 && r.name.starts_with("weights:"))
      weight_addr = r.base + r.bytes / 2;
  ASSERT_GE(weight_addr, 0);
  replicas[0].image.FlipBit(weight_addr, 5);
  EXPECT_FALSE(same_bytes(replicas[0].image, replicas[1].image));
  EXPECT_TRUE(same_bytes(replicas[1].image, provisioned));
  EXPECT_TRUE(same_bytes(provisioned, before));

  // A copy of the flipped replica is a full private copy: it keeps the
  // flip, and later writes to either side stay apart.
  MemoryImage copy = replicas[0].image;
  EXPECT_TRUE(same_bytes(copy, replicas[0].image));
  copy.FlipBit(weight_addr, 5);
  EXPECT_EQ(copy.data()[weight_addr] ^ replicas[0].image.data()[weight_addr],
            1 << 5);

  // The scrub restores replica 0 from the sealed image byte for byte.
  EXPECT_GT(fault::ScrubWeights(replicas[0].image, provisioned,
                                fx.design.memory_map),
            0);
  EXPECT_TRUE(same_bytes(replicas[0].image, provisioned));

  // The sealed image refuses every mutator.
  EXPECT_THROW(provisioned.data(), std::logic_error);
  EXPECT_THROW(provisioned.WriteElem(0, 1, 2), std::logic_error);
  EXPECT_THROW(provisioned.FlipBit(0, 0), std::logic_error);
  EXPECT_THROW(provisioned.CopyRange(before, 0, 1), std::logic_error);
  EXPECT_TRUE(same_bytes(provisioned, before));
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
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_hit";
  std::filesystem::remove_all(dir);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  DesignCache::Options options;
  options.directory = dir.string();
  options.tracer = &tracer;
  options.metrics = &metrics;
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);

  const AcceleratorDesign first =
      DesignCache(options).GetOrGenerate(key, fx.net, fx.constraint,
                                         &tracer);
  const std::int64_t toolchain_end = tracer.TrackEnd("toolchain");
  EXPECT_GT(toolchain_end, 0);  // the miss ran the generator phases
  EXPECT_EQ(metrics.CounterValue("cluster.cache.miss"), 1);

  // A second cache over the warm directory (a new process, as far as
  // the cache can tell) rebuilds the same design without a single new
  // toolchain span: the generator did not run again.
  const AcceleratorDesign second =
      DesignCache(options).GetOrGenerate(key, fx.net, fx.constraint,
                                         &tracer);
  EXPECT_EQ(DesignToJson(first), DesignToJson(second));
  EXPECT_EQ(tracer.TrackEnd("toolchain"), toolchain_end);
  EXPECT_EQ(metrics.CounterValue("cluster.cache.disk_hit"), 1);

  // The lookup outcomes are spans on the "cluster" track.
  int cluster_spans = 0;
  for (const obs::Span& span : tracer.Sorted())
    if (span.track == "cluster") ++cluster_spans;
  EXPECT_EQ(cluster_spans, 2);  // one miss + one disk hit
  std::filesystem::remove_all(dir);
}

TEST(DesignCache, ForgedHashCollisionIsRejectedByFullCompare) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_forged";
  std::filesystem::remove_all(dir);
  DesignCache::Options options;
  options.directory = dir.string();
  DesignCache cache(options);
  const DesignKey real = MakeDesignKey(fx.def, fx.constraint);
  cache.Insert(real, fx.design);

  // Same digest, different canonical content: both keys name one entry
  // file, and the full-key compare must refuse to alias.
  DesignKey forged;
  forged.hash = real.hash;
  forged.canonical = real.canonical + "\n# not the same network\n";
  EXPECT_FALSE(cache.Lookup(forged).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_TRUE(cache.Lookup(real).has_value());

  // Inserting the forged key overwrites the shared file: the real key's
  // lookup is then a miss, never the forged key's design.
  cache.Insert(forged, fx.design);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  EXPECT_FALSE(cache.Lookup(real).has_value());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().disk_hits, 1);
  std::filesystem::remove_all(dir);
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
  const std::optional<AcceleratorDesign> loaded = cache.Lookup(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(DesignToJson(*loaded), DesignToJson(fx.design));
  EXPECT_EQ(EmitVerilog(loaded->rtl), EmitVerilog(fx.design.rtl));

  // A corrupt entry degrades to a miss, never a wrong design.
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- disk entries

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `entry` with `field`'s value in the config record replaced by `value`
/// and the trailing checksum (16 hex digits + newline) recomputed, so
/// only the loader's range and rebuild checks can refuse it.
std::string ResealedWith(const std::string& entry, const std::string& field,
                         std::int64_t value) {
  std::string body = entry.substr(0, entry.size() - 17);
  const std::size_t start = body.find(field + "=", body.find("%config%"));
  EXPECT_NE(start, std::string::npos) << field;
  const std::size_t end = body.find_first_of(",\n", start);
  body.replace(start, end - start, field + "=" + std::to_string(value));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return body + hex + "\n";
}

/// Persist `key`'s design through one cache, then look it up in a fresh
/// cache over the same directory (a new process, as far as the cache
/// can tell).
std::optional<AcceleratorDesign> DiskHit(
    const std::filesystem::path& dir, const DesignKey& key,
    const AcceleratorDesign& design) {
  std::filesystem::remove_all(dir);
  DesignCache::Options options;
  options.directory = dir.string();
  DesignCache(options).Insert(key, design);
  DesignCache cold(options);
  std::optional<AcceleratorDesign> hit = cold.Lookup(key);
  EXPECT_EQ(cold.stats().disk_hits, 1);
  return hit;
}

// The invariant the cache rests on: a disk hit rebuilds exactly the
// design the generator (or the tuner) produced, from nine numbers.
TEST(DesignCache, DiskHitRebuildsTheGeneratedDesign) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_rebuild";
  for (ZooModel model : AllZooModels()) {
    const NetworkDef def = ParseNetworkDef(ZooModelPrototxt(model));
    const Network net = Network::Build(def);
    for (const DesignConstraint& constraint :
         {DbSConstraint(), DbConstraint(), DbLConstraint()}) {
      SCOPED_TRACE(ZooModelName(model) + " at " +
                   BudgetLevelName(constraint.budget));
      const AcceleratorDesign design = GenerateAccelerator(net, constraint);
      const auto hit =
          DiskHit(dir, MakeDesignKey(def, constraint), design);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(DesignToJson(*hit), DesignToJson(design));
      EXPECT_EQ(EmitVerilog(hit->rtl), EmitVerilog(design.rtl));
    }
  }

  // The default-sweep tune winner is sized by dse::CandidateConfig, not
  // by the generator's refit loop, and is keyed with a %tune% suffix.
  const NetworkDef def = ParseNetworkDef(ZooModelPrototxt(ZooModel::kMnist));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const dse::TuneOptions tune;
  const dse::TuneResult result = dse::Explore(net, constraint, tune);
  const AcceleratorDesign winner = dse::CompileWinner(
      net, constraint, SizeDatapath(net, constraint),
      result.candidates[result.winner].spec);
  const auto hit = DiskHit(
      dir, dse::MakeTuneKey(def, constraint, tune.sweep, tune.objective),
      winner);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(DesignToJson(*hit), DesignToJson(winner));
  EXPECT_EQ(EmitVerilog(hit->rtl), EmitVerilog(winner.rtl));
  std::filesystem::remove_all(dir);
}

TEST(DesignCache, DiskHitDesignSimulatesBitIdentically) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_sim";
  const auto hit =
      DiskHit(dir, MakeDesignKey(fx.def, fx.constraint), fx.design);
  ASSERT_TRUE(hit.has_value());
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  MemoryImage image_a = BuildHostImage(fx.net, fx.design, weights);
  MemoryImage image_b = BuildHostImage(fx.net, *hit, weights);
  const Tensor input = FixtureInput(fx.net, 7);
  const Tensor out_a =
      SystemContext(fx.net, fx.design, image_a).Run(image_a, input).output;
  const Tensor out_b =
      SystemContext(fx.net, *hit, image_b).Run(image_b, input).output;
  EXPECT_EQ(out_a.storage(), out_b.storage());
  std::filesystem::remove_all(dir);
}

TEST(DesignCache, KeyKeepsEveryDigitOfAFractionalField) {
  // Six significant digits used to alias these two clocks onto one key,
  // and a disk hit would rebuild the design at the rounded clock.
  GeneratedFixture& fx = Fixture();
  DesignConstraint a = fx.constraint;
  DesignConstraint b = fx.constraint;
  a.frequency_mhz = 123.4567891;
  b.frequency_mhz = 123.4567892;
  EXPECT_NE(MakeDesignKey(fx.def, a).canonical,
            MakeDesignKey(fx.def, b).canonical);
  EXPECT_EQ(ParseConstraint(ConstraintToPrototxt(a)).frequency_mhz,
            a.frequency_mhz);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_digits";
  const AcceleratorDesign design = GenerateAccelerator(fx.net, a);
  const auto hit = DiskHit(dir, MakeDesignKey(fx.def, a), design);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(DesignToJson(*hit), DesignToJson(design));
  std::filesystem::remove_all(dir);
}

// Exhaustive corruption of a persisted MNIST entry: every single-bit
// flip and every truncation is a miss, caught by the checksum before a
// field is parsed (so nothing is counted as a verify reject).
TEST(DesignCache, EveryBitFlipAndTruncationIsAMiss) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_flips";
  std::filesystem::remove_all(dir);
  const NetworkDef def = ParseNetworkDef(ZooModelPrototxt(ZooModel::kMnist));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const DesignKey key = MakeDesignKey(def, constraint);
  obs::MetricsRegistry metrics;
  DesignCache::Options options;
  options.directory = dir.string();
  options.metrics = &metrics;
  DesignCache(options).GetOrGenerate(key, net, constraint);
  const std::filesystem::path entry = dir / (cluster::DesignKeyHex(key) +
                                             ".design");
  const std::string bytes = ReadBytes(entry);
  ASSERT_GT(bytes.size(), key.canonical.size());

  auto served = [&](const std::string& corrupt) {
    WriteBytes(entry, corrupt);
    return DesignCache(options).Lookup(key).has_value();
  };
  int served_flips = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      if (served(corrupt)) {
        ++served_flips;
        ADD_FAILURE() << "flip of byte " << i << " bit " << bit << " served";
      }
    }
  EXPECT_EQ(served_flips, 0);
  for (std::size_t size = 0; size < bytes.size(); ++size)
    EXPECT_FALSE(served(bytes.substr(0, size))) << "truncated to " << size;
  EXPECT_EQ(metrics.CounterValue("cluster.cache.verify_reject"), 0);

  // The generator rewrites the entry, and a fresh cache disk-hits it.
  DesignCache rebuild(options);
  rebuild.GetOrGenerate(key, net, constraint);
  EXPECT_EQ(rebuild.stats().misses, 1);
  EXPECT_EQ(rebuild.stats().disk_writes, 1);
  EXPECT_EQ(ReadBytes(entry), bytes);
  DesignCache warm(options);
  EXPECT_TRUE(warm.Lookup(key).has_value());
  EXPECT_EQ(warm.stats().disk_hits, 1);
  std::filesystem::remove_all(dir);
}

// A record with a valid checksum but a field outside its range is a
// miss, never an exception; at the range ends it may build or miss,
// but nothing escapes Lookup.
TEST(DesignCache, OutOfRangeSizedFieldIsAMiss) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_ranges";
  std::filesystem::remove_all(dir);
  const NetworkDef def = ParseNetworkDef(ZooModelPrototxt(ZooModel::kMnist));
  const Network net = Network::Build(def);
  const DesignConstraint constraint = DbConstraint();
  const DesignKey key = MakeDesignKey(def, constraint);
  DesignCache::Options options;
  options.directory = dir.string();
  DesignCache(options).GetOrGenerate(key, net, constraint);
  const std::filesystem::path entry = dir / (cluster::DesignKeyHex(key) +
                                             ".design");
  const std::string bytes = ReadBytes(entry);

  for (const SpecKey<AcceleratorConfig>& row : cluster::kSizedConfigKeys) {
    for (std::int64_t value : {row.lo - 1, row.hi + 1}) {
      WriteBytes(entry, ResealedWith(bytes, row.key, value));
      DesignCache cache(options);
      EXPECT_FALSE(cache.Lookup(key).has_value())
          << row.key << "=" << value;
      EXPECT_EQ(cache.stats().misses, 1);
    }
    for (std::int64_t value : {row.lo, row.hi}) {
      WriteBytes(entry, ResealedWith(bytes, row.key, value));
      EXPECT_NO_THROW(DesignCache(options).Lookup(key))
          << row.key << "=" << value;
    }
  }
  // The untouched entry still loads: the resealing itself is sound.
  WriteBytes(entry, bytes);
  EXPECT_TRUE(DesignCache(options).Lookup(key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(Fnv1a, MatchesKnownVectors) {
  // Reference values for the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(Fnv1a64("foobar"), 9625390261332436968ull);
}

}  // namespace
}  // namespace db
