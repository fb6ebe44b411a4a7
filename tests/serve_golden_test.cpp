// Golden digests of the inference server's complete output (ctest label:
// differential).  Each scenario serves a fixed MNIST request stream and
// folds everything the server reports into FNV-1a digests: every
// ServedRequest field including the output bytes, the metrics JSON, the
// Chrome-trace JSON, the load time-series JSON and Stats().ToString().
// The digests are committed, so any change to batching, admission,
// routing, fault handling, recovery accounting or the exports shows up
// here across commits, not only between two runs of one binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "core/generator.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/inference_server.h"

namespace db {
namespace {

using serve::AdmissionPolicy;
using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServeOptions;

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  Fixture()
      : net(BuildZooModel(ZooModel::kMnist)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(31);
    weights = WeightStore::CreateRandom(net, rng);
  }

  Tensor Input(std::uint64_t seed) const {
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(seed);
    t.FillUniform(rng, 0.0f, 1.0f);
    return t;
  }
};

const Fixture& SharedFixture() {
  static const Fixture* fixture = new Fixture;
  return *fixture;
}

/// One pinned serving run: the options, the request stream and the
/// committed digests of what it reports.
struct Scenario {
  std::string name;
  int requests = 0;
  std::uint64_t input_seed = 0;       // request i uses seed input_seed + i
  std::int64_t arrival_gap = 0;       // request i arrives at i * gap
  /// Request i gets deadline arrival + 1 when i % explicit_deadline_every
  /// == explicit_deadline_every - 1 (0 = no explicit deadlines).
  int explicit_deadline_every = 0;
  bool sim_metrics = false;  // the CLI's sim.* sink on the same registry
  void (*configure)(ServeOptions&, const AcceleratorDesign&) = nullptr;
  // Committed digests (hex FNV-1a).
  const char* records;
  const char* metrics;
  const char* trace;
  const char* timeseries;
  const char* stats;
};

// Without a printer gtest shows a Scenario as its raw bytes, pointers
// included, so the registered test names would change with every run.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

std::uint64_t Mix(std::uint64_t hash, const void* bytes, std::size_t n) {
  return Fnv1a64(std::string_view(static_cast<const char*>(bytes), n), hash);
}

template <typename T>
std::uint64_t MixValue(std::uint64_t hash, T value) {
  return Mix(hash, &value, sizeof(value));
}

std::uint64_t DigestRecords(const std::vector<ServedRequest>& records) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const ServedRequest& r : records) {
    h = MixValue(h, r.id);
    h = MixValue(h, r.batch_id);
    h = MixValue(h, r.replica);
    h = MixValue(h, r.arrival_cycle);
    h = MixValue(h, r.deadline_cycle);
    h = MixValue(h, r.start_cycle);
    h = MixValue(h, r.finish_cycle);
    h = MixValue(h, r.service_cycles);
    h = MixValue(h, r.dram_bytes);
    std::uint64_t joules_bits = 0;
    std::memcpy(&joules_bits, &r.joules, sizeof(joules_bits));
    h = MixValue(h, joules_bits);
    h = MixValue(h, static_cast<int>(r.status));
    h = MixValue(h, r.retries);
    h = MixValue(h, r.recovery_cycles);
    h = MixValue(h, r.output.size());
    h = Mix(h, r.output.storage().data(),
            r.output.storage().size() * sizeof(float));
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

class ServeGolden : public ::testing::TestWithParam<Scenario> {};

TEST_P(ServeGolden, DigestsArePinned) {
  const Scenario& s = GetParam();
  const Fixture& fx = SharedFixture();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::TimeSeriesRecorder timeseries;
  ServeOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.timeseries = &timeseries;
  if (s.sim_metrics) options.sim_metrics = &metrics;
  s.configure(options, fx.design);

  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (int i = 0; i < s.requests; ++i) {
    const std::int64_t arrival = i * s.arrival_gap;
    const bool explicit_deadline =
        s.explicit_deadline_every > 0 &&
        i % s.explicit_deadline_every == s.explicit_deadline_every - 1;
    server.Submit(fx.Input(s.input_seed + static_cast<std::uint64_t>(i)),
                  arrival, explicit_deadline ? arrival + 1 : 0);
  }
  const std::vector<ServedRequest>& records = server.Drain();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(s.requests));

  EXPECT_EQ(Hex(DigestRecords(records)), s.records) << "records";
  EXPECT_EQ(Hex(Fnv1a64(metrics.ToJson())), s.metrics) << "metrics";
  EXPECT_EQ(Hex(Fnv1a64(obs::WriteChromeTrace(
                tracer, fx.design.config.frequency_mhz))),
            s.trace)
      << "trace";
  EXPECT_EQ(Hex(Fnv1a64(timeseries.ToJson())), s.timeseries)
      << "timeseries";
  EXPECT_EQ(Hex(Fnv1a64(server.Stats().ToString())), s.stats) << "stats";
}

fault::FaultPlan Campaign(const fault::FaultCampaignSpec& spec,
                          const AcceleratorDesign& design) {
  return fault::FaultPlan::Generate(spec, design.memory_map);
}

const Scenario kScenarios[] = {
    {.name = "LingerOneReplica",
     .requests = 24,
     .input_seed = 100,
     .arrival_gap = 1000,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 1;
           o.max_batch_size = 4;
           o.linger_cycles = 5000;
         },
     .records = "644b327352b2faa8",
     .metrics = "21bb7dfaccad5eca",
     .trace = "685ad42ad1b035ab",
     .timeseries = "d87629bc74bb49e9",
     .stats = "5520b679569e78f6"},
    {.name = "LingerThreeReplicas",
     .requests = 24,
     .input_seed = 100,
     .arrival_gap = 1000,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 3;
           o.max_batch_size = 4;
           o.linger_cycles = 5000;
         },
     .records = "6329e25a5d880d14",
     .metrics = "e51890d889e41d83",
     .trace = "cc71c1567e4bbc37",
     .timeseries = "4c08a070d60c67a8",
     .stats = "0b46bbdb4270dacf"},
    {.name = "RejectAtCapacityTwo",
     .requests = 16,
     .input_seed = 300,
     .arrival_gap = 300,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 1;
           o.max_batch_size = 4;
           o.linger_cycles = 1000;
           o.queue_capacity = 2;
           o.admission = AdmissionPolicy::kReject;
         },
     .records = "5679721dfbd62433",
     .metrics = "e0c4d57fff8e0e29",
     .trace = "8bac40642203ed91",
     .timeseries = "75a8c18deab9119f",
     .stats = "d33160a1fd53369a"},
    {.name = "ShedOldestAtCapacityTwo",
     .requests = 24,
     .input_seed = 300,
     .arrival_gap = 300,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign& design) {
           o.replicas = 2;
           o.max_batch_size = 4;
           o.linger_cycles = 1000;
           o.queue_capacity = 2;
           o.admission = AdmissionPolicy::kShedOldest;
           fault::FaultCampaignSpec spec;
           spec.seed = 5;
           spec.weight_flips = 6;
           spec.transients = 2;
           spec.stalls = 2;
           spec.invocation_span = 8;
           spec.workers = 2;
           o.faults = Campaign(spec, design);
         },
     .records = "4e313514bdf4d135",
     .metrics = "1e181862fe5d4814",
     .trace = "4e5910ab404b1e2b",
     .timeseries = "ce320da818909530",
     .stats = "cf73fdaa9b32f566"},
    {.name = "ExplicitDeadlines",
     .requests = 12,
     .input_seed = 400,
     .arrival_gap = 0,
     .explicit_deadline_every = 3,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 1;
           o.max_batch_size = 2;
         },
     .records = "db8b267c3fd3bd96",
     .metrics = "7642f094c0e77d16",
     .trace = "15e63bb552676420",
     .timeseries = "2a1d92551c0cfb50",
     .stats = "c5843917b6b0e757"},
    {.name = "DefaultDeadlineUnderStalls",
     .requests = 24,
     .input_seed = 400,
     .arrival_gap = 500,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign& design) {
           o.replicas = 2;
           o.max_batch_size = 2;
           o.deadline_cycles = 6000;
           fault::FaultCampaignSpec spec;
           spec.seed = 9;
           spec.stalls = 6;
           spec.stall_cycles = 3000;
           spec.transients = 2;
           spec.invocation_span = 12;
           spec.workers = 2;
           o.faults = Campaign(spec, design);
         },
     .records = "4f71e02583ecccfe",
     .metrics = "a0cfba77cb426295",
     .trace = "eaa66b6d77f672ff",
     .timeseries = "912684e54b36bdd9",
     .stats = "64a1c3d706b83f8f"},
    // The FaultCampaign.SurvivesBitFlipsTransientsAndStalls campaign.
    {.name = "FaultCampaign",
     .requests = 32,
     .input_seed = 200,
     .arrival_gap = 0,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign& design) {
           o.replicas = 2;
           o.max_batch_size = 4;
           fault::FaultCampaignSpec spec;
           spec.seed = 2016;
           spec.weight_flips = 110;
           spec.transients = 6;
           spec.stalls = 3;
           spec.invocation_span = 16;
           spec.workers = 2;
           o.faults = Campaign(spec, design);
         },
     .records = "ebf617ff639bc711",
     .metrics = "6eaa587d2dee6ffd",
     .trace = "6b27cd1c20ee4daa",
     .timeseries = "56a1c72fee23b720",
     .stats = "f47ffb7a88820019"},
    // The ChaosServer.SeededCampaignIsLosslessAndByteStable campaign:
    // crashes, hangs, a slow window, route failures (all 30 events fire),
    // hedging after three steady inferences and a breaker that opens on
    // the first failure for a cooldown of about one steady inference.
    {.name = "ChaosAcceptance",
     .requests = 48,
     .input_seed = 700,
     .arrival_gap = 50,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign& design) {
           o.replicas = 4;
           o.max_batch_size = 2;
           o.hedge_after_cycles = 3 * 1965;  // MNIST's steady cycles
           o.breaker.enabled = true;
           o.breaker.failure_threshold = 1;
           o.breaker.cooldown_cycles = 2048;
           fault::FaultCampaignSpec spec;
           spec.seed = 30;
           spec.crashes = 2;
           spec.hangs = 2;
           spec.slow_replicas = 1;
           spec.route_fails = 3;
           spec.weight_flips = 20;
           spec.transients = 2;
           spec.invocation_span = 12;
           spec.workers = 4;
           o.faults = Campaign(spec, design);
         },
     .records = "583fc2c474c86656",
     .metrics = "26302e676c3013aa",
     .trace = "e13af73168380f9c",
     .timeseries = "cb22ae02c2c5c4c1",
     .stats = "6e98f82960820ec7"},
    // The ChaosServer.HedgingBoundsSlowReplicaTailLatency run: one slow
    // replica, hedged after three steady inferences.
    {.name = "HedgedSlowReplica",
     .requests = 32,
     .input_seed = 600,
     .arrival_gap = 1965,  // MNIST's steady invocation cycles
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 4;
           o.max_batch_size = 1;
           o.hedge_after_cycles = 3 * 1965;
           fault::FaultEvent slow;
           slow.kind = fault::FaultKind::kSlow;
           slow.replica = 1;
           slow.invocation = 0;
           slow.slow_factor = 8;
           slow.slow_services = 4;
           o.faults.seed = 2;
           o.faults.events.push_back(slow);
         },
     .records = "704759384a43bd1e",
     .metrics = "e0a8ddacc34906a0",
     .trace = "de29a58127caf040",
     .timeseries = "89623932f1d292a3",
     .stats = "db80b883a56c795a"},
    // The ChaosServer.BreakerOpensUnderRepeatedRouteFailures run: three
    // route failures on the sole replica open its breaker, and the
    // stream waits out the cooldown.
    {.name = "BreakerOpens",
     .requests = 12,
     .input_seed = 800,
     .arrival_gap = 0,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign&) {
           o.replicas = 1;
           o.max_batch_size = 1;
           o.breaker.enabled = true;
           o.breaker.failure_threshold = 2;
           o.breaker.cooldown_cycles = 1 << 14;
           o.faults.seed = 3;
           for (int i = 0; i < 3; ++i) {
             fault::FaultEvent event;
             event.kind = fault::FaultKind::kRouteFail;
             event.replica = 0;
             event.invocation = 0;
             o.faults.events.push_back(event);
           }
         },
     .records = "acac2e44af7270a8",
     .metrics = "1941053603da5142",
     .trace = "1b7dc5ccac01b92d",
     .timeseries = "84b7760e9c6d49c4",
     .stats = "ca780e2d48966dbe"},
    // The CLI's wiring: serve.* and the per-invocation sim.* metrics in
    // one registry, under a datapath campaign with blob flips and more
    // transient failures on one invocation than kMaxRetries retries.
    {.name = "SimMetricsLikeTheCli",
     .requests = 32,
     .input_seed = 900,
     .arrival_gap = 20,
     .sim_metrics = true,
     .configure =
         [](ServeOptions& o, const AcceleratorDesign& design) {
           o.replicas = 2;
           o.max_batch_size = 4;
           fault::FaultCampaignSpec spec;
           spec.seed = 7;
           spec.weight_flips = 40;
           spec.blob_flips = 4;
           spec.transients = 8;
           spec.stalls = 1;
           spec.invocation_span = 16;
           spec.workers = 2;
           o.faults = Campaign(spec, design);
           for (int i = 0; i <= serve::kMaxRetries; ++i) {
             fault::FaultEvent event;
             event.kind = fault::FaultKind::kTransient;
             event.replica = 0;
             event.invocation = 2;
             o.faults.events.push_back(event);
           }
         },
     .records = "85c3268394c52a63",
     .metrics = "b7e6b229ff48fc3b",
     .trace = "6653d8a7b7bbc9bb",
     .timeseries = "b86788377a56fa37",
     .stats = "6f399c43cf54d714"},
};

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ServeGolden, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace db
