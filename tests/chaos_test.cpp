// Cluster-resilience tests: the health log derived from a plan, the
// circuit breaker, least-loaded routing around faults, cluster fault
// planning, crash re-dispatch, hedging and the seeded whole-cluster chaos
// campaign (ctest label: chaos).
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/health_monitor.h"
#include "core/generator.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

using cluster::BreakerOptions;
using cluster::CircuitBreaker;
using cluster::HealthAt;
using cluster::HealthLog;
using cluster::HealthTransition;
using cluster::ParseBreakerSpec;
using cluster::ReplicaHealth;
using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServeOptions;
using serve::ServerStats;

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kMnist)
      : net(BuildZooModel(model)),
        design(GenerateAccelerator(net, DbConstraint())),
        weights(WeightStore::CreateFor(net)) {
    Rng rng(31);
    weights = WeightStore::CreateRandom(net, rng);
  }

  Tensor RandomInput(std::uint64_t seed) const {
    const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
    Tensor t(Shape{s.channels, s.height, s.width});
    Rng rng(seed);
    t.FillUniform(rng, 0.0f, 1.0f);
    return t;
  }

  std::vector<Tensor> Inputs(int n) const {
    std::vector<Tensor> inputs;
    for (int i = 0; i < n; ++i)
      inputs.push_back(RandomInput(700 + static_cast<std::uint64_t>(i)));
    return inputs;
  }

  /// What the server's planner knows about this design.
  serve::PlanCosts Costs() const {
    const MemoryImage image = BuildHostImage(net, design, weights);
    const SystemContext context(net, design, image);
    return serve::MakePlanCosts(design, context, "zynq-7045");
  }
};

/// Plan and summarise `requests` arrivals `gap` cycles apart, with the
/// fault campaign `campaign` generated for `options.replicas` replicas
/// the way `deepburning serve --faults` does.
serve::ServePlan PlanCampaign(const Fixture& f, ServeOptions options,
                              const std::string& campaign, int requests,
                              std::int64_t gap) {
  fault::FaultCampaignSpec spec = fault::ParseFaultCampaign(campaign);
  spec.workers = options.replicas;
  options.faults = fault::FaultPlan::Generate(spec, f.design.memory_map);
  std::vector<serve::RequestArrival> arrivals(
      static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i)
    arrivals[static_cast<std::size_t>(i)].arrival_cycle = i * gap;
  serve::ServePlan plan = serve::PlanServe(arrivals, options, f.Costs());
  serve::SummarizePlan(plan, f.design.config.frequency_mhz);
  return plan;
}

// ---------------------------------------------------------------------
// The health log derived from a plan's crash and hang windows

cluster::Outage Crash(int replica, std::int64_t cycle,
                      std::int64_t down_cycles) {
  return {.replica = replica,
          .from = cycle,
          .until = cycle + down_cycles,
          .crash = true};
}

cluster::Outage Hang(int replica, std::int64_t from, std::int64_t until) {
  return {.replica = replica, .from = from, .until = until};
}

TEST(HealthMonitor, CrashWalksDownRecoveringHealthy) {
  const std::vector<HealthTransition> log =
      HealthLog(2, {{Crash(0, 1000, 4000)}}, /*readmit_scrub_cycles=*/10);
  EXPECT_EQ(HealthAt(log, 0, 999), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 0, 1000), ReplicaHealth::kDown);
  EXPECT_EQ(HealthAt(log, 1, 1000), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 0, 4999), ReplicaHealth::kDown);
  EXPECT_EQ(HealthAt(log, 0, 5000), ReplicaHealth::kRecovering);
  EXPECT_EQ(HealthAt(log, 0, 5009), ReplicaHealth::kRecovering);
  EXPECT_EQ(HealthAt(log, 0, 5010), ReplicaHealth::kHealthy);

  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].to, ReplicaHealth::kDown);
  EXPECT_EQ(log[0].cause, "crash");
  EXPECT_EQ(log[1].to, ReplicaHealth::kRecovering);
  EXPECT_EQ(log[2].to, ReplicaHealth::kHealthy);
  EXPECT_EQ(log[2].cause, "scrub");
}

TEST(HealthMonitor, HangMissesHeartbeatsOnTheGrid) {
  constexpr std::int64_t kBeat = cluster::kHeartbeatIntervalCycles;
  constexpr std::int64_t kSuspectTick = cluster::kSuspectAfterMisses * kBeat;
  constexpr std::int64_t kDownTick = cluster::kDownAfterMisses * kBeat;

  // Heartbeats on multiples of kBeat after cycle 50 go missing until
  // the window ends half a beat past the down tick; recovery is
  // observed at the next heartbeat.  A hang does not reboot the card,
  // so it is healthy there at once, with no readmit scrub.
  const std::vector<HealthTransition> log =
      HealthLog(1, {{Hang(0, 50, kDownTick + kBeat / 2)}},
                /*readmit_scrub_cycles=*/5);
  EXPECT_EQ(HealthAt(log, 0, kSuspectTick - 1), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 0, kSuspectTick), ReplicaHealth::kSuspect);
  EXPECT_EQ(HealthAt(log, 0, kDownTick - 1), ReplicaHealth::kSuspect);
  EXPECT_EQ(HealthAt(log, 0, kDownTick), ReplicaHealth::kDown);
  EXPECT_EQ(HealthAt(log, 0, kDownTick + kBeat - 1), ReplicaHealth::kDown);
  EXPECT_EQ(HealthAt(log, 0, kDownTick + kBeat), ReplicaHealth::kHealthy);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.back().from, ReplicaHealth::kDown);
  EXPECT_EQ(log.back().cycle, kDownTick + kBeat);
  EXPECT_EQ(log.back().cause, "heartbeat");
}

TEST(HealthMonitor, HangBelowTheDownThresholdRecoversAtTheNextBeat) {
  constexpr std::int64_t kBeat = cluster::kHeartbeatIntervalCycles;
  static_assert(cluster::kDownAfterMisses > cluster::kSuspectAfterMisses);
  // One heartbeat short of kDown: suspect, then healthy at the first
  // heartbeat after the window, with no readmit scrub.
  const std::int64_t until = (cluster::kDownAfterMisses - 1) * kBeat + 1;
  const std::vector<HealthTransition> log =
      HealthLog(1, {{Hang(0, 0, until)}}, /*readmit_scrub_cycles=*/5);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].to, ReplicaHealth::kSuspect);
  EXPECT_EQ(log[0].cycle, cluster::kSuspectAfterMisses * kBeat);
  EXPECT_EQ(log[1].to, ReplicaHealth::kHealthy);
  EXPECT_EQ(log[1].cycle, cluster::kDownAfterMisses * kBeat);
  EXPECT_EQ(log[1].cause, "heartbeat");
}

TEST(HealthMonitor, HangShorterThanOneHeartbeatIsUnobserved) {
  constexpr std::int64_t kBeat = cluster::kHeartbeatIntervalCycles;
  const std::vector<HealthTransition> log =
      HealthLog(1, {{Hang(0, kBeat + 10, 2 * kBeat)}},  // no tick inside
                /*readmit_scrub_cycles=*/5);
  EXPECT_EQ(HealthAt(log, 0, 2 * kBeat), ReplicaHealth::kHealthy);
  EXPECT_TRUE(log.empty());
}

TEST(HealthMonitor, HealthAtReplaysTheTransitionLog) {
  const std::vector<HealthTransition> log =
      HealthLog(2, {{Crash(1, 500, 1000)}}, /*readmit_scrub_cycles=*/10);
  EXPECT_EQ(HealthAt(log, 1, 0), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 1, 499), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 1, 500), ReplicaHealth::kDown);
  EXPECT_EQ(HealthAt(log, 1, 1500), ReplicaHealth::kRecovering);
  EXPECT_EQ(HealthAt(log, 1, 1510), ReplicaHealth::kHealthy);
  EXPECT_EQ(HealthAt(log, 0, 1510), ReplicaHealth::kHealthy);
}

// A crash after a hang's window but before the heartbeat that would
// observe its recovery: the dead replica's recovery never happens, and
// the log goes suspect -> down -> recovering -> healthy on the crash's
// readmission alone.
TEST(HealthMonitor, CrashSupersedesAPendingHangRecovery) {
  constexpr std::int64_t kBeat = cluster::kHeartbeatIntervalCycles;
  // Suspect at the first beat; the window ends mid-beat, so recovery
  // would be observed at 2 * kBeat.
  const std::int64_t until = kBeat + kBeat / 2;
  const std::vector<HealthTransition> log = HealthLog(
      1, {{Hang(0, 0, until), Crash(0, until + 1, 1000)}},
      /*readmit_scrub_cycles=*/10);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].to, ReplicaHealth::kSuspect);
  EXPECT_EQ(log[0].cycle, kBeat);
  EXPECT_EQ(log[1].from, ReplicaHealth::kSuspect);
  EXPECT_EQ(log[1].to, ReplicaHealth::kDown);
  EXPECT_EQ(log[1].cycle, until + 1);
  EXPECT_EQ(log[1].cause, "crash");
  EXPECT_EQ(log[2].to, ReplicaHealth::kRecovering);
  EXPECT_EQ(log[2].cycle, until + 1 + 1000);
  EXPECT_EQ(log[3].to, ReplicaHealth::kHealthy);
  EXPECT_EQ(log[3].cycle, until + 1 + 1000 + 10);
  EXPECT_EQ(log[3].cause, "scrub");
  EXPECT_EQ(HealthAt(log, 0, 2 * kBeat), ReplicaHealth::kDown);
}

// ---------------------------------------------------------------------
// CircuitBreaker

TEST(Breaker, OpensAfterThresholdAndHalfOpenTrialDecides) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  options.cooldown_cycles = 100;
  CircuitBreaker breaker(1, options);

  // Below the threshold a failure returns 0; the one that reaches it
  // opens the breaker and returns the cooldown end.
  EXPECT_EQ(breaker.RecordFailure(0, 10), 0);
  EXPECT_EQ(breaker.RecordFailure(0, 20), 120);
  EXPECT_EQ(breaker.opens(), 1);
  // A failure or a success inside the cooldown leaves the episode as-is.
  EXPECT_EQ(breaker.RecordFailure(0, 50), 0);
  breaker.RecordSuccess(0, 60);
  EXPECT_EQ(breaker.opens(), 1);

  // A failed half-open trial re-opens at once with a fresh cooldown.
  EXPECT_EQ(breaker.RecordFailure(0, 130), 230);
  EXPECT_EQ(breaker.opens(), 2);
  // The next trial succeeds and closes the breaker: the threshold counts
  // from zero again.
  breaker.RecordSuccess(0, 240);
  EXPECT_EQ(breaker.RecordFailure(0, 250), 0);
  EXPECT_EQ(breaker.RecordFailure(0, 260), 360);
  EXPECT_EQ(breaker.opens(), 3);
}

TEST(Breaker, SuccessResetsTheFailureCount) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  CircuitBreaker breaker(2, options);
  EXPECT_EQ(breaker.RecordFailure(0, 0), 0);
  breaker.RecordSuccess(0, 1);
  EXPECT_EQ(breaker.RecordFailure(0, 2), 0);
  // Counts are per replica.
  EXPECT_EQ(breaker.RecordFailure(1, 3), 0);
  EXPECT_EQ(breaker.opens(), 0);
}

// A disabled breaker never opens, so it never holds a replica back.
TEST(Breaker, DisabledAlwaysAllows) {
  CircuitBreaker breaker(1, BreakerOptions{});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(breaker.RecordFailure(0, i), 0);
  EXPECT_EQ(breaker.opens(), 0);
}

TEST(Breaker, ParseSpecRoundTripsAndRejectsBogusInput) {
  const BreakerOptions options = ParseBreakerSpec("failures=2,cooldown=100");
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.failure_threshold, 2);
  EXPECT_EQ(options.cooldown_cycles, 100);
  EXPECT_TRUE(ParseBreakerSpec("failures=5").enabled);
  EXPECT_THROW(ParseBreakerSpec("failures=0"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures=abc"), Error);
  EXPECT_THROW(ParseBreakerSpec("bogus=1"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures"), Error);
  EXPECT_THROW(ParseBreakerSpec("failures=2147483648"), Error);  // > int
  // A cooldown holds the replica's free cycle, so it is bounded well
  // inside int64.
  EXPECT_EQ(ParseBreakerSpec("cooldown=1099511627776").cooldown_cycles,
            cluster::kMaxCooldownCycles);
  EXPECT_THROW(ParseBreakerSpec("cooldown=1099511627777"), Error);
}

// ---------------------------------------------------------------------
// Cluster fault planning and the injector split

TEST(ClusterFaultPlan, ParseGenerateAndSplit) {
  const fault::FaultCampaignSpec spec = fault::ParseFaultCampaign(
      "seed=5,crashes=2,hangs=1,slow-replicas=1,route-fails=3,"
      "crash-down-cycles=512,hang-cycles=256,slow-factor=3,"
      "slow-services=4,span=8");
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.crashes, 2);
  EXPECT_EQ(spec.hangs, 1);
  EXPECT_EQ(spec.slow_replicas, 1);
  EXPECT_EQ(spec.route_fails, 3);
  EXPECT_EQ(spec.crash_down_cycles, 512);
  EXPECT_EQ(spec.hang_cycles, 256);
  EXPECT_EQ(spec.slow_factor, 3);
  EXPECT_EQ(spec.slow_services, 4);
  EXPECT_THROW(fault::ParseFaultCampaign("crashes=-1"), Error);
  EXPECT_THROW(fault::ParseFaultCampaign("slow-factor=1"), Error);
  EXPECT_THROW(fault::ParseFaultCampaign("flips=99999999999"), Error);

  Fixture f;
  fault::FaultCampaignSpec sized = spec;
  sized.workers = 2;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(sized, f.design.memory_map);
  ASSERT_EQ(plan.events.size(), 7u);
  int cluster_events = 0;
  for (const fault::FaultEvent& event : plan.events)
    if (fault::IsClusterFault(event.kind)) ++cluster_events;
  EXPECT_EQ(cluster_events, 7);
  EXPECT_NE(plan.ToString().find("crash"), std::string::npos);

  // Equal (spec, map) pairs yield equal plans.
  const fault::FaultPlan again =
      fault::FaultPlan::Generate(sized, f.design.memory_map);
  EXPECT_EQ(plan.ToString(), again.ToString());

  // The injector deals cluster events into per-replica slices and keeps
  // them out of the datapath lanes.
  fault::FaultInjector injector(plan, 2);
  EXPECT_EQ(injector.cluster_events(), 7u);
  EXPECT_EQ(injector.ClusterForReplica(0).size() +
                injector.ClusterForReplica(1).size(),
            7u);
  for (int w = 0; w < 2; ++w)
    for (const fault::FaultEvent& event : injector.ForReplica(w))
      EXPECT_FALSE(fault::IsClusterFault(event.kind));
}

// ---------------------------------------------------------------------
// Server-level resilience

TEST(ChaosServer, CrashSplitsBatchAndRedispatchesToSurvivor) {
  Fixture f;
  const int kRequests = 12;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  auto run = [&](const fault::FaultPlan& plan) {
    ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 1;
    options.faults = plan;
    InferenceServer server(f.net, f.design, f.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    std::vector<ServedRequest> records = server.Drain();
    return std::make_pair(std::move(records), server.Stats());
  };

  fault::FaultPlan plan;
  plan.seed = 1;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.replica = 0;
  crash.invocation = 2;  // replica 0 dies before its third service
  crash.down_cycles = 4096;
  plan.events.push_back(crash);

  const auto [clean, clean_stats] = run(fault::FaultPlan{});
  const auto [records, stats] = run(plan);

  ASSERT_EQ(records.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(records[i].status, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(records[i].output.storage(), clean[i].output.storage())
        << "request " << i;
  }
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_GE(stats.redispatched, 1);
  EXPECT_EQ(stats.readmissions, 1);
  EXPECT_GE(stats.health_transitions, 1);
  EXPECT_EQ(clean_stats.crashes, 0);
}

TEST(ChaosServer, HedgingBoundsSlowReplicaTailLatency) {
  Fixture f;
  const int kRequests = 32;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  fault::FaultPlan plan;
  plan.seed = 2;
  fault::FaultEvent slow;
  slow.kind = fault::FaultKind::kSlow;
  slow.replica = 1;
  slow.invocation = 0;
  slow.slow_factor = 8;
  slow.slow_services = 4;
  plan.events.push_back(slow);

  auto run = [&](const fault::FaultPlan& faults,
                 std::int64_t hedge_after) {
    ServeOptions options;
    options.replicas = 4;
    options.max_batch_size = 1;
    options.faults = faults;
    options.hedge_after_cycles = hedge_after;
    InferenceServer server(f.net, f.design, f.weights, options);
    const std::int64_t gap = server.steady_cycles();
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += gap;
    }
    std::vector<ServedRequest> records = server.Drain();
    return std::make_pair(std::move(records), server.Stats());
  };

  InferenceServer probe(f.net, f.design, f.weights, {});
  const std::int64_t hedge_after = 3 * probe.steady_cycles();
  probe.Drain();

  const auto [clean, clean_stats] = run(fault::FaultPlan{}, 0);
  const auto [slow_records, slow_stats] = run(plan, 0);
  const auto [hedged, hedged_stats] = run(plan, hedge_after);

  ASSERT_EQ(hedged.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(hedged[i].status, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(hedged[i].output.storage(), clean[i].output.storage())
        << "request " << i;
  }
  EXPECT_GE(hedged_stats.hedges, 1);
  EXPECT_GE(hedged_stats.hedge_wins, 1);
  // The documented bound (DESIGN.md "Cluster resilience"): hedged p99
  // stays within 5x fault-free, and beats the unhedged run.
  EXPECT_LE(hedged_stats.latency_p99_s, 5.0 * clean_stats.latency_p99_s);
  EXPECT_LT(hedged_stats.latency_p99_s, slow_stats.latency_p99_s);
  EXPECT_EQ(clean_stats.hedges, 0);
}

TEST(ChaosServer, BreakerOpensUnderRepeatedRouteFailures) {
  Fixture f;
  const int kRequests = 12;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  // Three transient route failures stacked on the sole replica's first
  // committed service: with no other replica to try, each re-route
  // lands on it again.  The second failure opens the breaker; the third
  // falls inside the cooldown, and the batch waits it out.
  fault::FaultPlan plan;
  plan.seed = 3;
  for (int i = 0; i < 3; ++i) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kRouteFail;
    event.replica = 0;
    event.invocation = 0;
    plan.events.push_back(event);
  }

  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  options.faults = plan;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_cycles = 1 << 14;
  InferenceServer server(f.net, f.design, f.weights, options);
  for (const Tensor& input : inputs) server.Submit(input, 0);
  const std::vector<ServedRequest>& records = server.Drain();
  const ServerStats stats = server.Stats();

  for (const ServedRequest& r : records)
    EXPECT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(stats.route_failures, 3);
  EXPECT_EQ(stats.breaker_opens, 1);
  EXPECT_EQ(records.front().start_cycle, options.breaker.cooldown_cycles);
}

/// Synthetic invocation costs: a cold invocation costs 100 cycles, a
/// warm one 60.
serve::PlanCosts SyntheticCosts() {
  serve::PlanCosts costs;
  costs.cold = {.cycles = 100, .dram_bytes = 10, .joules = 1.0};
  costs.steady = {.cycles = 60, .dram_bytes = 5, .joules = 0.5};
  return costs;
}

/// Plan one request per entry of `arrivals` (its arrival cycle) on
/// SyntheticCosts().
serve::ServePlan PlanSynthetic(const ServeOptions& options,
                               const std::vector<std::int64_t>& arrivals) {
  std::vector<serve::RequestArrival> requests(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    requests[i].arrival_cycle = arrivals[i];
  return serve::PlanServe(requests, options, SyntheticCosts());
}

std::vector<int> Replicas(const serve::ServePlan& plan) {
  std::vector<int> replicas;
  for (const ServedRequest& r : plan.requests) replicas.push_back(r.replica);
  return replicas;
}

// Least-loaded placement: each batch goes to the replica whose datapath
// frees earliest in simulated time, ties to the lowest index.
TEST(ChaosPlan, EarliestFreeReplicaWinsTiesToLowestIndex) {
  ServeOptions options;
  options.replicas = 3;
  options.max_batch_size = 1;
  // Replica free cycles at each arrival (r0, r1, r2):
  //   0: (0, 0, 0) tie -> 0     50: (100, 0, 0) tie -> 1
  //  60: (100, 150, 0) -> 2     70: (100, 150, 160) -> 0
  //  80: (160, 150, 160) -> 1   90: (160, 210, 160) tie -> 0
  const serve::ServePlan plan =
      PlanSynthetic(options, {0, 50, 60, 70, 80, 90});
  EXPECT_EQ(Replicas(plan), (std::vector<int>{0, 1, 2, 0, 1, 0}));
}

// A route failure re-routes its batch, and never back to a replica that
// already failed a route for it; the next batch may use it again.
TEST(ChaosPlan, RouteFailureSkipsTheFailedReplicaForThisBatch) {
  ServeOptions options;
  options.replicas = 3;
  options.max_batch_size = 1;
  for (int replica : {0, 1}) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kRouteFail;
    event.replica = replica;
    event.invocation = 0;
    options.faults.events.push_back(event);
  }
  const serve::ServePlan plan = PlanSynthetic(options, {0, 1000});
  EXPECT_EQ(plan.stats.route_failures, 2);
  // Request 0: replica 0 fails, replica 1 fails, replica 2 serves it.
  // Request 1: every replica is free again, and the tie goes to 0.
  EXPECT_EQ(Replicas(plan), (std::vector<int>{2, 0}));
  for (const ServedRequest& r : plan.requests)
    EXPECT_EQ(r.status, StatusCode::kOk);
}

/// `options` with a breaker that opens on the first failure for
/// `cooldown` cycles, and one route failure on each replica in
/// `replicas`, on its first dispatch.
ServeOptions RouteFailuresWithBreaker(ServeOptions options,
                                      std::int64_t cooldown,
                                      std::initializer_list<int> replicas) {
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 1;
  options.breaker.cooldown_cycles = cooldown;
  for (int replica : replicas) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kRouteFail;
    event.replica = replica;
    event.invocation = 0;
    options.faults.events.push_back(event);
  }
  return options;
}

// With every breaker open the pool has nothing free before a cooldown
// ends: each batch lands at the earliest cooldown end, the first on a
// replica it has already failed on.
TEST(ChaosPlan, BatchLandsWhenNothingIsRoutable) {
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 1;
  options = RouteFailuresWithBreaker(options, 100000, {0, 1});
  const serve::ServePlan plan = PlanSynthetic(options, {0, 10});
  EXPECT_EQ(plan.stats.route_failures, 2);
  EXPECT_EQ(plan.stats.breaker_opens, 2);
  // Request 0 failed on both replicas at cycle 0, so both are held until
  // 100000 and the tie goes to replica 0; request 1 takes replica 1,
  // held until the same cycle.
  EXPECT_EQ(Replicas(plan), (std::vector<int>{0, 1}));
  for (const ServedRequest& r : plan.requests) {
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_EQ(r.start_cycle, 100000);
  }
}

// An open breaker holds its replica's free cycle, not a mask: once the
// cooldown ends the replica takes its share again, however deep the
// other replica's queue.  1240 is when replica 1 alone would finish all
// 20 requests (one cold run, then 19 warm ones).
TEST(ChaosPlan, OpenBreakerHoldsTheReplicaOnlyUntilTheCooldownEnds) {
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 1;
  options = RouteFailuresWithBreaker(options, 1000, {0});
  const serve::ServePlan plan =
      PlanSynthetic(options, std::vector<std::int64_t>(20, 0));
  EXPECT_EQ(plan.stats.breaker_opens, 1);
  std::int64_t last_finish = 0;
  int on_replica0 = 0;
  for (const ServedRequest& r : plan.requests) {
    EXPECT_EQ(r.status, StatusCode::kOk);
    last_finish = std::max(last_finish, r.finish_cycle);
    if (r.replica != 0) continue;
    ++on_replica0;
    EXPECT_GE(r.start_cycle, 1000);  // never inside the cooldown
  }
  EXPECT_GT(on_replica0, 0);
  EXPECT_LT(last_finish, 1240);
}

// A sole replica whose breaker opens waits out the cooldown: the first
// batch starts at its end.
TEST(ChaosPlan, SoleReplicaWaitsOutTheCooldown) {
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  options = RouteFailuresWithBreaker(options, 1000, {0});
  const serve::ServePlan plan = PlanSynthetic(options, {0, 0});
  EXPECT_EQ(plan.stats.breaker_opens, 1);
  EXPECT_EQ(plan.requests[0].start_cycle, 1000);
  EXPECT_EQ(plan.requests[1].start_cycle, 1000 + 100);  // after a cold run
  ASSERT_EQ(plan.cluster_log.size(), 2u);
  EXPECT_EQ(plan.cluster_log[1].name, "breaker_open");
  EXPECT_EQ(plan.cluster_log[1].start, 0);
  EXPECT_EQ(plan.cluster_log[1].end, 1000);
}

// Routing reads health off the timeline alone: a crashed replica's free
// cycle is its readmission plus the scrub, so once it frees before every
// other replica it takes the next batch, though the batch is ready while
// the replica is still down.
TEST(ChaosPlan, CrashedReplicaTakesTheNextBatchWhenItFreesFirst) {
  serve::PlanCosts costs = SyntheticCosts();
  costs.scrub_cycles = 10;
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 1;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.replica = 0;
  crash.invocation = 0;
  crash.down_cycles = 100;
  // Replica 1 runs the re-dispatched first request ten times slower:
  // one cold invocation of 100 cycles becomes 1000.
  fault::FaultEvent slow;
  slow.kind = fault::FaultKind::kSlow;
  slow.replica = 1;
  slow.invocation = 0;
  slow.slow_factor = 10;
  slow.slow_services = 1;
  options.faults.events = {crash, slow};
  std::vector<serve::RequestArrival> arrivals(2);
  arrivals[1].arrival_cycle = 50;
  const serve::ServePlan plan = serve::PlanServe(arrivals, options, costs);

  EXPECT_EQ(plan.stats.crashes, 1);
  EXPECT_EQ(plan.requests[0].replica, 1);
  EXPECT_EQ(plan.requests[0].finish_cycle, 1000);
  // Request 1 is ready at 50, with replica 0 down until 100 and
  // scrubbing until 110: it starts there, not at 1000 on replica 1.
  EXPECT_EQ(plan.requests[1].replica, 0);
  EXPECT_EQ(plan.requests[1].start_cycle, 110);
  for (const ServedRequest& r : plan.requests)
    EXPECT_EQ(r.status, StatusCode::kOk);
}

// The health log follows the timeline: a hang long enough to reach
// kDown frees the replica at its end with no scrub, so the log has the
// replica healthy at the first heartbeat after the hang, never
// kRecovering, and the next batch starts at the hang's end.
TEST(ChaosPlan, HangThatReachesDownRecoversWithoutAScrub) {
  constexpr std::int64_t kBeat = cluster::kHeartbeatIntervalCycles;
  serve::PlanCosts costs = SyntheticCosts();
  costs.scrub_cycles = 100;
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  fault::FaultEvent hang;
  hang.kind = fault::FaultKind::kHang;
  hang.replica = 0;
  hang.invocation = 0;
  hang.stall_cycles = 8 * kBeat + 10;  // ends just past a heartbeat
  options.faults.events.push_back(hang);
  const std::vector<serve::RequestArrival> arrivals(1);
  const serve::ServePlan plan = serve::PlanServe(arrivals, options, costs);

  EXPECT_EQ(plan.stats.hangs, 1);
  EXPECT_EQ(plan.requests[0].start_cycle, hang.stall_cycles);
  ASSERT_FALSE(plan.health.empty());
  for (const HealthTransition& t : plan.health)
    EXPECT_NE(t.to, ReplicaHealth::kRecovering) << t.cycle;
  const HealthTransition& last = plan.health.back();
  EXPECT_EQ(last.from, ReplicaHealth::kDown);
  EXPECT_EQ(last.to, ReplicaHealth::kHealthy);
  EXPECT_EQ(last.cycle, 9 * kBeat);
  EXPECT_EQ(last.cause, "heartbeat");
}

// A route failure never reaches the replica, so it is the breaker's
// signal alone: without a breaker the replica stays in rotation.  (It
// used to be parked at kSuspect, which only a dispatch it could no
// longer get would lift.)
TEST(ChaosPlan, RouteFailureLeavesTheReplicaInRotation) {
  const Fixture f;
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 4;
  const serve::ServePlan plan = PlanCampaign(
      f, options, "seed=3,route-fails=1,span=20", 400, 1100);
  EXPECT_EQ(plan.stats.route_failures, 1);
  EXPECT_TRUE(plan.health.empty());
  EXPECT_EQ(plan.stats.replica_requests[0], 200);
  EXPECT_EQ(plan.stats.replica_requests[1], 200);
}

// The faulted MNIST stream at 0.9 of two-replica capacity with the
// breaker and hedging on (`deepburning serve --zoo MNIST --requests
// 2000 --replicas 2 --batch 4 --arrival-gap 1113 --faults <below>
// --breaker failures=3 --hedge-after-cycles 6009`): three route
// failures, a crash and a slow replica leave the load balanced, every
// campaign event fires, and every hedge placed is a hedge that won.
TEST(ChaosPlan, FaultedStreamStaysBalancedAndEveryHedgeWins) {
  const Fixture f;
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 4;
  options.breaker = ParseBreakerSpec("failures=3");
  options.hedge_after_cycles = 6009;
  const int kRequests = 2000;
  const serve::ServePlan plan = PlanCampaign(
      f, options,
      "seed=13,flips=40,transients=8,stalls=4,crashes=1,slow-replicas=1,"
      "route-fails=3,span=1000",
      kRequests, 1113);
  const ServerStats& stats = plan.stats;
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.route_failures, 3);
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.slow_faults, 1);
  EXPECT_EQ(stats.faults_injected, 40 + 8 + 4 + 1 + 1 + 3);  // all fire
  for (int r = 0; r < 2; ++r) {
    const std::int64_t served =
        stats.replica_requests[static_cast<std::size_t>(r)];
    EXPECT_GE(served * 100, 45 * kRequests) << "replica " << r;
    EXPECT_LE(served * 100, 55 * kRequests) << "replica " << r;
  }
  EXPECT_GE(stats.hedges, 1);
  EXPECT_EQ(stats.hedge_wins, stats.hedges);
}

// A slow replica whose every batch is hedged away still works off its
// slow window: each cancelled primary counts against it, so after
// `slow_services` cancellations the replica serves at normal cost.
TEST(ChaosPlan, HedgedAwayBatchesWearOffASlowWindow) {
  const serve::PlanCosts costs = SyntheticCosts();
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 1;
  options.hedge_after_cycles = 2 * costs.steady.cycles;
  fault::FaultEvent slow;
  slow.kind = fault::FaultKind::kSlow;
  slow.replica = 0;
  slow.invocation = 0;
  slow.slow_factor = 8;
  slow.slow_services = 4;
  options.faults.events.push_back(slow);
  // Arrivals far enough apart that both replicas are idle at each one:
  // least-loaded routing breaks the tie to replica 0 every time.
  std::vector<serve::RequestArrival> arrivals(8);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    arrivals[i].arrival_cycle = static_cast<std::int64_t>(i) * 1000;
  const serve::ServePlan plan = serve::PlanServe(arrivals, options, costs);

  EXPECT_EQ(plan.stats.hedges, slow.slow_services);
  EXPECT_EQ(plan.stats.hedge_wins, slow.slow_services);
  bool warm = false;  // replica 0 has run a request
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const ServedRequest& r = plan.requests[i];
    EXPECT_EQ(r.status, StatusCode::kOk) << i;
    if (static_cast<std::int64_t>(i) < slow.slow_services) {
      EXPECT_EQ(r.replica, 1) << i;  // hedged away from the slow replica
      continue;
    }
    // The first request after the window goes back to replica 0.
    if (static_cast<std::int64_t>(i) == slow.slow_services) {
      EXPECT_EQ(r.replica, 0);
    }
    if (r.replica != 0) continue;
    EXPECT_EQ(r.service_cycles,
              warm ? costs.steady.cycles : costs.cold.cycles)
        << i;
    warm = true;
  }
  EXPECT_TRUE(warm);
}

// The acceptance campaign: >= 4 replicas, mixed cluster + datapath
// faults, hedging (after three steady invocations, inside the batch
// window of this saturated stream) and a breaker that opens on the first
// dispatch failure — both fire, zero lost requests, kOk outputs
// bit-identical to fault-free, metrics/trace/time-series byte-stable
// across reruns.  Seed 30 places every one of the campaign's 30 events
// on an invocation the stream reaches, the slow window included.  The
// breaker's cooldown is about one steady invocation; an open breaker
// holds its replica until the cooldown ends, which no request may start
// inside.
TEST(ChaosServer, SeededCampaignIsLosslessAndByteStable) {
  Fixture f;
  const int kRequests = 48;
  const int kReplicas = 4;
  const std::vector<Tensor> inputs = f.Inputs(kRequests);

  fault::FaultCampaignSpec spec;
  spec.seed = 30;
  spec.crashes = 2;
  spec.hangs = 2;
  spec.slow_replicas = 1;
  spec.route_fails = 3;
  spec.weight_flips = 20;
  spec.transients = 2;
  spec.invocation_span = kRequests / kReplicas;
  spec.workers = kReplicas;
  const fault::FaultPlan plan =
      fault::FaultPlan::Generate(spec, f.design.memory_map);
  const std::int64_t hedge_after = 3 * f.Costs().steady.cycles;

  struct Run {
    std::vector<ServedRequest> records;
    ServerStats stats;
    std::string trace;
    std::string metrics;
    std::string timeseries;
    std::vector<obs::Span> holds;  // the breaker_open episodes
  };
  auto run = [&](const fault::FaultPlan& faults) {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    obs::TimeSeriesRecorder timeseries;
    ServeOptions options;
    options.replicas = kReplicas;
    options.max_batch_size = 2;
    options.faults = faults;
    options.hedge_after_cycles = hedge_after;
    options.breaker = ParseBreakerSpec("failures=1,cooldown=2048");
    options.tracer = &tracer;
    options.metrics = &metrics;
    options.timeseries = &timeseries;
    InferenceServer server(f.net, f.design, f.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 50;
    }
    Run result;
    result.records = server.Drain();
    result.stats = server.Stats();
    result.trace =
        obs::WriteChromeTrace(tracer, f.design.config.frequency_mhz);
    result.metrics = metrics.ToJson();
    result.timeseries = timeseries.ToJson();
    for (obs::Span& span : tracer.Sorted())
      if (span.name == "breaker_open") result.holds.push_back(std::move(span));
    return result;
  };

  const Run clean = run(fault::FaultPlan{});
  const Run first = run(plan);
  const Run second = run(plan);

  // Zero lost requests, every kOk output bit-identical to fault-free.
  ASSERT_EQ(first.records.size(), static_cast<std::size_t>(kRequests));
  std::int64_t ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (first.records[i].status != StatusCode::kOk) continue;
    ++ok;
    EXPECT_EQ(first.records[i].output.storage(),
              clean.records[i].output.storage())
        << "request " << i;
  }
  EXPECT_EQ(ok + first.stats.shed + first.stats.rejected +
                first.stats.deadline_exceeded + first.stats.faulted,
            kRequests);
  EXPECT_GE(first.stats.crashes + first.stats.hangs +
                first.stats.slow_faults + first.stats.route_failures,
            1);
  EXPECT_GE(first.stats.slow_faults, 1);
  EXPECT_GE(first.stats.hedges, 1);
  EXPECT_GE(first.stats.breaker_opens, 1);
  // An open breaker holds its replica: no request starts on it inside
  // one of its breaker_open episodes.
  EXPECT_EQ(first.holds.size(),
            static_cast<std::size_t>(first.stats.breaker_opens));
  for (const obs::Span& hold : first.holds) {
    const std::string replica = hold.args.front().second;
    for (const ServedRequest& r : first.records) {
      if (r.status != StatusCode::kOk || std::to_string(r.replica) != replica)
        continue;
      EXPECT_FALSE(r.start_cycle >= hold.start && r.start_cycle < hold.end)
          << "request " << r.id << " on replica " << replica;
    }
  }

  // Byte-stable exports across identical reruns.
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.timeseries, second.timeseries);

  // The health time-series column and cluster metrics exist.
  EXPECT_NE(first.timeseries.find("load.replica0.health"),
            std::string::npos);
  EXPECT_NE(first.metrics.find("cluster.health.crashes"),
            std::string::npos);
}

}  // namespace
}  // namespace db
