// DSE engine contract (`ctest -L dse`).
//
// The centerpiece is the exhaustive cross-check: for every zoo model,
// the multi-threaded pruned search (Explore, jobs=8) is compared point
// for point against a brute-force single-threaded sweep evaluated here
// with an independent naive frontier implementation — same candidates,
// same statuses, bit-identical objective scores, identical frontier —
// and the rendered tune report is pinned to a digest.
//
// Around it, property tests pin the frontier contract on seeded random
// objective vectors (mutual non-domination, completeness, permutation
// invariance), the sweep grammar's canonicalisation, the determinism
// guarantee (byte-identical reports for jobs=1 vs jobs=8 and across
// reruns), frontier members verifying clean, and the tune cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "cluster/design_cache.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/generator.h"
#include "dse/explorer.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace db {
namespace {

using dse::CandidateResult;
using dse::CandidateSpec;
using dse::Objective;
using dse::SweepSpec;
using dse::TuneOptions;
using dse::TuneResult;

// ------------------------------------------------------ pareto properties

/// Independent O(n^2) frontier oracle: flag-based exclusion instead of
/// pareto.cpp's per-point scan, then the same canonical sort.
std::vector<std::size_t> NaiveFrontier(
    const std::vector<std::vector<double>>& points) {
  std::vector<bool> excluded(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == i) continue;
      if (dse::Dominates(points[j], points[i])) excluded[i] = true;
      if (j < i && points[j] == points[i]) excluded[i] = true;
    }
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!excluded[i]) frontier.push_back(i);
  std::sort(frontier.begin(), frontier.end(),
            [&](std::size_t a, std::size_t b) {
              return points[a] != points[b] ? points[a] < points[b]
                                            : a < b;
            });
  return frontier;
}

std::vector<std::vector<double>> RandomPoints(std::uint64_t seed,
                                              std::size_t count) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // A coarse value grid forces duplicates and exact objective ties.
    points.push_back({static_cast<double>(rng.UniformInt(6)),
                      static_cast<double>(rng.UniformInt(6)),
                      static_cast<double>(rng.UniformInt(6))});
  }
  return points;
}

TEST(Pareto, DominatesContract) {
  EXPECT_TRUE(dse::Dominates({1, 2, 3}, {1, 2, 4}));
  EXPECT_TRUE(dse::Dominates({0, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(dse::Dominates({1, 2, 3}, {1, 2, 3}));  // equal: neither
  EXPECT_FALSE(dse::Dominates({1, 2, 4}, {1, 2, 3}));
  EXPECT_FALSE(dse::Dominates({0, 5}, {1, 2}));  // trade-off: neither
  EXPECT_FALSE(dse::Dominates({1, 2}, {0, 5}));
}

TEST(Pareto, SeededRandomVectorProperties) {
  for (const std::uint64_t seed : {11ull, 29ull, 47ull, 83ull, 131ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<std::vector<double>> points =
        RandomPoints(seed, 64);
    const std::vector<std::size_t> frontier =
        dse::ParetoFrontier(points);
    ASSERT_FALSE(frontier.empty());

    // Mutual non-domination and vector uniqueness on the frontier.
    for (std::size_t a : frontier)
      for (std::size_t b : frontier) {
        if (a == b) continue;
        EXPECT_FALSE(dse::Dominates(points[a], points[b]))
            << a << " dominates " << b;
        EXPECT_NE(points[a], points[b]);
      }

    // Completeness: every excluded point is dominated by some point or
    // duplicates an earlier one — nothing undominated is dropped.
    std::vector<bool> on_frontier(points.size(), false);
    for (std::size_t idx : frontier) on_frontier[idx] = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (on_frontier[i]) continue;
      bool justified = false;
      for (std::size_t j = 0; j < points.size() && !justified; ++j)
        justified = (j != i && dse::Dominates(points[j], points[i])) ||
                    (j < i && points[j] == points[i]);
      EXPECT_TRUE(justified) << "point " << i << " dropped undominated";
    }

    // Canonical order: (objective vector lexicographic, index).
    for (std::size_t k = 1; k < frontier.size(); ++k) {
      const auto& prev = points[frontier[k - 1]];
      const auto& cur = points[frontier[k]];
      EXPECT_TRUE(prev < cur ||
                  (prev == cur && frontier[k - 1] < frontier[k]));
    }

    // Agreement with the independent oracle.
    EXPECT_EQ(frontier, NaiveFrontier(points));

    // Permutation invariance: the selected vector set is a pure
    // function of the multiset of points.
    std::vector<std::vector<double>> shuffled = points;
    Rng perm_rng(seed * 7 + 1);
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1], shuffled[perm_rng.UniformInt(i)]);
    auto vectors_of = [](const std::vector<std::vector<double>>& pts,
                         const std::vector<std::size_t>& idx) {
      std::vector<std::vector<double>> v;
      for (std::size_t i : idx) v.push_back(pts[i]);
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(vectors_of(points, frontier),
              vectors_of(shuffled, dse::ParetoFrontier(shuffled)));
  }
}

// ------------------------------------------------------------ sweep spec

TEST(Sweep, DefaultRoundTrips) {
  const SweepSpec def;
  EXPECT_EQ(def.CandidateCount(), 72u);
  EXPECT_EQ(def.ToString(),
            "lanes=25,50,100,200;port=8,16,32;split=30,45,60;dsp=on,off");
  const SweepSpec parsed = dse::ParseSweepSpec(def.ToString());
  EXPECT_EQ(parsed.ToString(), def.ToString());
  EXPECT_EQ(parsed.Enumerate(), def.Enumerate());
  // The empty spec is the default sweep.
  EXPECT_EQ(dse::ParseSweepSpec("").ToString(), def.ToString());
}

TEST(Sweep, ParseNormalisesOrderAndDuplicates) {
  const SweepSpec spec = dse::ParseSweepSpec(
      "port=32,8,8;lanes=100,50,100;dsp=off,on,off;split=60,30");
  EXPECT_EQ(spec.ToString(),
            "lanes=50,100;port=8,32;split=30,60;dsp=on,off");
  EXPECT_EQ(spec.CandidateCount(), 16u);
  // Any spelling of the same grid enumerates identically (and therefore
  // hashes to the same tune cache key).
  EXPECT_EQ(spec.Enumerate(),
            dse::ParseSweepSpec("lanes=50,100;split=30,60;port=8,32;"
                                "dsp=on,off")
                .Enumerate());
}

TEST(Sweep, PartialSpecKeepsOtherAxesDefault) {
  const SweepSpec spec = dse::ParseSweepSpec("lanes=100;dsp=on");
  EXPECT_EQ(spec.ToString(),
            "lanes=100;port=8,16,32;split=30,45,60;dsp=on");
  EXPECT_EQ(spec.CandidateCount(), 9u);
}

TEST(Sweep, RejectsMalformedSpecs) {
  EXPECT_THROW(dse::ParseSweepSpec("warp=9"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes=50;lanes=100"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes="), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes=abc"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes=0"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes=1601"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("lanes=99999999999999999999"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("port=24"), Error);     // not pow2
  EXPECT_THROW(dse::ParseSweepSpec("port=512"), Error);    // too wide
  EXPECT_THROW(dse::ParseSweepSpec("split=4"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("split=91"), Error);
  EXPECT_THROW(dse::ParseSweepSpec("dsp=maybe"), Error);
}

TEST(Sweep, CandidateSpecRendering) {
  CandidateSpec spec;
  spec.lanes_pct = 50;
  spec.port_elems = 32;
  spec.data_split_pct = 45;
  spec.allow_dsp = false;
  EXPECT_EQ(spec.ToString(), "lanes=50%,port=32,split=45%,dsp=off");
}

TEST(Objective, ParseAndName) {
  EXPECT_EQ(dse::ParseObjective("latency"), Objective::kLatency);
  EXPECT_EQ(dse::ParseObjective("energy"), Objective::kEnergy);
  EXPECT_EQ(dse::ParseObjective("balanced"), Objective::kBalanced);
  EXPECT_THROW(dse::ParseObjective("throughput"), Error);
  EXPECT_THROW(dse::ParseObjective(""), Error);
  EXPECT_STREQ(dse::ObjectiveName(Objective::kBalanced), "balanced");
}

// ------------------------------------------------- exhaustive cross-check

Network ZooNetwork(ZooModel model) {
  return Network::Build(ParseNetworkDef(ZooModelPrototxt(model)));
}

/// Full default grid for the small models; the CNN-scale models sweep a
/// reduced grid to keep the sanitizer-stage runtime bounded.
SweepSpec SweepFor(ZooModel model) {
  if (model == ZooModel::kAlexnet || model == ZooModel::kNin ||
      model == ZooModel::kCifar)
    return dse::ParseSweepSpec("lanes=50,100,200;port=16,32;split=30,60");
  return SweepSpec{};
}

/// FNV-1a64 of each model's tune report over SweepFor(model).
std::uint64_t PinnedTuneDigest(ZooModel model) {
  switch (model) {
    case ZooModel::kAnn0Fft: return 0xeed785f9f5007411ull;
    case ZooModel::kAnn1Jpeg: return 0x7771b83ca1e00bd5ull;
    case ZooModel::kAnn2Kmeans: return 0x4c2d9217ef6c3e32ull;
    case ZooModel::kHopfield: return 0x8627fef7118e9389ull;
    case ZooModel::kCmac: return 0x1f28553eb2f30645ull;
    case ZooModel::kMnist: return 0x992345836fe25840ull;
    case ZooModel::kAlexnet: return 0xfb72e5e6262d1ac4ull;
    case ZooModel::kNin: return 0xd62675d46aa81f26ull;
    case ZooModel::kCifar: return 0xf7e8f2b8b03d6830ull;
  }
  return 0;
}

TEST(Explore, ExhaustiveCrossCheckEveryZooModel) {
  for (const ZooModel model : AllZooModels()) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = ZooNetwork(model);
    const DesignConstraint constraint = ParseConstraint(std::string());
    const AcceleratorConfig base = SizeDatapath(net, constraint);
    const SweepSpec sweep = SweepFor(model);
    const std::vector<CandidateSpec> specs = sweep.Enumerate();

    // Brute force: every candidate, one thread, enumeration order.
    std::vector<CandidateResult> brute;
    std::vector<std::size_t> scored;
    std::vector<std::vector<double>> points;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      brute.push_back(
          dse::EvaluateCandidate(net, constraint, base, specs[i]));
      if (brute.back().status == CandidateResult::Status::kScored) {
        scored.push_back(i);
        points.push_back(brute.back().obj.AsVector());
      }
    }
    std::vector<std::size_t> expected_frontier;
    for (std::size_t p : NaiveFrontier(points))
      expected_frontier.push_back(scored[p]);
    ASSERT_FALSE(expected_frontier.empty());

    // The parallel pruned search must match point for point.
    TuneOptions options;
    options.sweep = sweep;
    options.jobs = 8;
    const TuneResult result = dse::Explore(net, constraint, options);
    // The rendered report (text, then JSON) is pinned byte for byte: the
    // schedule and verifier passes every candidate runs through must
    // not move a status, a score or the winner.
    EXPECT_EQ(Fnv1a64(result.ToText() + result.ToJson()),
              PinnedTuneDigest(model));
    ASSERT_EQ(result.candidates.size(), brute.size());
    for (std::size_t i = 0; i < brute.size(); ++i) {
      SCOPED_TRACE("candidate " + std::to_string(i) + " " +
                   specs[i].ToString());
      EXPECT_EQ(result.candidates[i].status, brute[i].status);
      if (brute[i].status != CandidateResult::Status::kScored) continue;
      EXPECT_EQ(result.candidates[i].obj.latency_cycles,
                brute[i].obj.latency_cycles);
      // Bit-exact: evaluation is a pure function, not "close enough".
      EXPECT_EQ(result.candidates[i].obj.energy_joules,
                brute[i].obj.energy_joules);
      EXPECT_EQ(result.candidates[i].obj.bram_bytes,
                brute[i].obj.bram_bytes);
    }
    EXPECT_EQ(result.frontier, expected_frontier);

    // No frontier point is dominated by ANY scored candidate.
    for (const std::size_t f : result.frontier)
      for (const std::size_t s : scored)
        EXPECT_FALSE(dse::Dominates(brute[s].obj.AsVector(),
                                    brute[f].obj.AsVector()))
            << "frontier point " << f << " dominated by " << s;

    // The winner sits on the frontier.
    EXPECT_NE(std::find(result.frontier.begin(), result.frontier.end(),
                        result.winner),
              result.frontier.end());
  }
}

TEST(Explore, FrontierMembersVerifyClean) {
  for (const ZooModel model :
       {ZooModel::kAnn1Jpeg, ZooModel::kMnist, ZooModel::kCifar}) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = ZooNetwork(model);
    const DesignConstraint constraint = ParseConstraint(std::string());
    const AcceleratorConfig base = SizeDatapath(net, constraint);
    TuneOptions options;
    options.sweep = SweepFor(model);
    options.jobs = 4;
    const TuneResult result = dse::Explore(net, constraint, options);
    const std::vector<CandidateSpec> specs = options.sweep.Enumerate();
    for (const std::size_t idx : result.frontier) {
      const AcceleratorDesign design = CompileForConfig(
          net, dse::CandidateConfig(net, base, specs[idx]));
      EXPECT_TRUE(analysis::VerifyDesign(net, design).ok())
          << specs[idx].ToString();
    }
    // CompileWinner additionally emits + lints RTL and runs the verify
    // gate; a frontier member must pass all three.
    EXPECT_NO_THROW(dse::CompileWinner(
        net, constraint, base, specs[result.winner]));
  }
}

TEST(Explore, ReportsByteIdenticalAcrossJobsAndReruns) {
  for (const ZooModel model : {ZooModel::kAnn0Fft, ZooModel::kMnist}) {
    SCOPED_TRACE(ZooModelName(model));
    const Network net = ZooNetwork(model);
    const DesignConstraint constraint = ParseConstraint(std::string());
    auto run = [&](int jobs) {
      TuneOptions options;
      options.jobs = jobs;
      return dse::Explore(net, constraint, options);
    };
    const TuneResult serial = run(1);
    const TuneResult parallel = run(8);
    const TuneResult rerun = run(8);
    EXPECT_EQ(serial.ToText(), parallel.ToText());
    EXPECT_EQ(serial.ToJson(), parallel.ToJson());
    EXPECT_EQ(parallel.ToText(), rerun.ToText());
    EXPECT_EQ(parallel.ToJson(), rerun.ToJson());
    EXPECT_EQ(serial.frontier, parallel.frontier);
    EXPECT_EQ(serial.winner, parallel.winner);
  }
}

TEST(Explore, WinnerRespectsObjective) {
  const Network net = ZooNetwork(ZooModel::kMnist);
  const DesignConstraint constraint = ParseConstraint(std::string());
  auto run = [&](Objective objective) {
    TuneOptions options;
    options.objective = objective;
    options.jobs = 4;
    return dse::Explore(net, constraint, options);
  };
  const TuneResult by_latency = run(Objective::kLatency);
  for (const std::size_t idx : by_latency.frontier)
    EXPECT_GE(by_latency.candidates[idx].obj.latency_cycles,
              by_latency.candidates[by_latency.winner].obj.latency_cycles);
  const TuneResult by_energy = run(Objective::kEnergy);
  for (const std::size_t idx : by_energy.frontier)
    EXPECT_GE(by_energy.candidates[idx].obj.energy_joules,
              by_energy.candidates[by_energy.winner].obj.energy_joules);
  const TuneResult balanced = run(Objective::kBalanced);
  const auto product = [&](std::size_t idx) {
    const dse::Objectives& o = balanced.candidates[idx].obj;
    return static_cast<double>(o.latency_cycles) * o.energy_joules;
  };
  for (const std::size_t idx : balanced.frontier)
    EXPECT_GE(product(idx), product(balanced.winner));
}

TEST(Explore, PublishesMetricsAndDseTrack) {
  const Network net = ZooNetwork(ZooModel::kAnn1Jpeg);
  const DesignConstraint constraint = ParseConstraint(std::string());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  TuneOptions options;
  options.jobs = 4;
  options.tracer = &tracer;
  options.metrics = &metrics;
  const TuneResult result = dse::Explore(net, constraint, options);

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"dse.candidates\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dse.scored\""), std::string::npos);
  EXPECT_NE(json.find("\"dse.frontier_points\""), std::string::npos);
  // The status counts partition the candidate set.
  EXPECT_EQ(
      result.candidates.size(),
      result.CountWithStatus(CandidateResult::Status::kScored) +
          result.CountWithStatus(CandidateResult::Status::kInfeasible) +
          result.CountWithStatus(CandidateResult::Status::kOverBudget) +
          result.CountWithStatus(
              CandidateResult::Status::kVerifyRejected));

  // The dse track carries the phase spans, in ordinal-tick order.
  std::vector<std::string> phases;
  for (const obs::Span& span : tracer.Sorted())
    if (span.track == "dse") phases.push_back(span.name);
  EXPECT_EQ(phases,
            (std::vector<std::string>{"size baseline", "score default",
                                      "evaluate sweep", "reduce frontier",
                                      "pick winner"}));
}

TEST(Explore, ThrowsWhenNothingSurvives) {
  // lanes=1600% of a sized Alexnet datapath cannot fit any budget axis.
  const Network net = ZooNetwork(ZooModel::kAlexnet);
  const DesignConstraint constraint = ParseConstraint(std::string());
  TuneOptions options;
  options.sweep =
      dse::ParseSweepSpec("lanes=1600;port=256;split=90;dsp=off");
  EXPECT_THROW(dse::Explore(net, constraint, options), Error);
}

// --------------------------------------------------------- tune cache key

TEST(TuneKey, SuffixPreservesCanonicalPrefixAndSeparatesRuns) {
  const NetworkDef def =
      ParseNetworkDef(ZooModelPrototxt(ZooModel::kAnn1Jpeg));
  const DesignConstraint constraint = ParseConstraint(std::string());
  const SweepSpec sweep;
  const cluster::DesignKey plain =
      cluster::MakeDesignKey(def, constraint);
  const cluster::DesignKey tune =
      dse::MakeTuneKey(def, constraint, sweep, Objective::kLatency);

  // Distinct from the plain generate key, and the (network, constraint)
  // canonical text survives as a strict prefix — DesignCache's disk
  // loader re-parses the network from the prefix before the first
  // separator, which must still resolve to the same script.
  EXPECT_NE(plain.hash, tune.hash);
  EXPECT_TRUE(tune.canonical.rfind(plain.canonical, 0) == 0);
  const std::string separator = "\n%constraint%\n";
  EXPECT_EQ(tune.canonical.substr(0, tune.canonical.find(separator)),
            plain.canonical.substr(0, plain.canonical.find(separator)));

  // Same grid, different spelling: same key.  Different objective or
  // different grid: different key.
  const SweepSpec respelled = dse::ParseSweepSpec(
      "dsp=off,on;split=60,45,30;port=32,16,8;lanes=200,100,50,25");
  EXPECT_EQ(tune.hash,
            dse::MakeTuneKey(def, constraint, respelled,
                             Objective::kLatency)
                .hash);
  EXPECT_NE(tune.hash,
            dse::MakeTuneKey(def, constraint, sweep, Objective::kEnergy)
                .hash);
  EXPECT_NE(tune.hash,
            dse::MakeTuneKey(def, constraint,
                             dse::ParseSweepSpec("lanes=100"),
                             Objective::kLatency)
                .hash);
}

}  // namespace
}  // namespace db
