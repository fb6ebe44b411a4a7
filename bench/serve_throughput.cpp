// Serving-throughput sweep: the batched inference server (src/serve)
// over replica count x batch size, for a small on-chip-resident model
// (MNIST) and a DRAM-bound ImageNet model (Alexnet).
//
// All numbers are simulated time: each replica is one accelerator
// instance on the fabric, so "2 workers" models a board provisioned with
// two copies of the generated design, each with its own DRAM image.
// Steady-state throughput should scale with replica count until the
// request stream can no longer keep the replicas busy; a batch is placed
// on one replica, so over-batching serialises the stream.
// The fault-campaign section then serves the same MNIST stream under a
// seeded src/fault plan (weight-region bit flips, transient invocation
// failures, worker stalls) and checks the resilience contract: every
// request the server completed with StatusCode::kOk produces output
// bit-identical to the fault-free run, with only cycles lost to
// recovery.
// The replica-scaling section drives the same request stream through
// pools of 1/2/4 replicas (least-loaded routing) and checks the cluster
// determinism contract: every kOk output is bit-identical regardless of
// replica count, because every replica starts from the same provisioned
// DRAM bytes.  The design is generated once for all three pools.
// The cluster-chaos section serves a crash / hang / slow / route-fail
// campaign with hedging and a breaker that opens on the first failure,
// and checks that both fire, that no request is lost and that hedging
// bounds the tail latency of a slow-replica campaign.
// The last line is the planner alone: PlanServe over a million MNIST
// arrivals with no datapath, in planned requests per wall second.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"

namespace {

db::Tensor MakeInput(const db::Network& net, std::uint64_t seed) {
  const db::BlobShape& s =
      net.layer(net.input_ids().front()).output_shape;
  db::Tensor t(db::Shape{s.channels, s.height, s.width});
  db::Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

}  // namespace

int main() {
  using namespace db;
  using namespace db::bench;

  constexpr int kRequests = 16;

  std::printf("=== Serving throughput: workers x batch (simulated time, "
              "%d requests, all arriving at cycle 0) ===\n",
              kRequests);
  std::printf("%-10s %8s %8s %10s %12s %12s %12s %10s %10s %6s\n",
              "model", "workers", "batch", "batches", "req/s", "p50_ms",
              "p99_ms", "speedup", "qwait_ms", "depth");
  PrintRule(110);

  for (ZooModel model : {ZooModel::kMnist, ZooModel::kAlexnet}) {
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    std::vector<Tensor> inputs;
    for (int i = 0; i < kRequests; ++i)
      inputs.push_back(MakeInput(net, 100 + static_cast<std::uint64_t>(i)));

    double base_rps = 0.0;
    for (int workers : {1, 2, 4}) {
      for (std::int64_t batch : {1, 4, 16}) {
        obs::MetricsRegistry metrics;
        serve::ServeOptions options;
        options.replicas = workers;
        options.max_batch_size = batch;
        options.metrics = &metrics;
        serve::InferenceServer server(net, design, weights, options);
        for (const Tensor& input : inputs) server.Submit(input, 0);
        server.Drain();
        const serve::ServerStats stats = server.Stats();
        if (workers == 1 && batch == 1) base_rps = stats.throughput_rps;
        // Latency percentiles, mean queue residency and peak depth all
        // come from the obs registry the server published into at drain
        // time; serve.latency_cycles is the same shared quantile
        // histogram ServerStats reads, so the two surfaces agree.
        const double cycles_to_ms = 1.0 / (design.config.frequency_mhz * 1e3);
        const obs::HistogramStats latency =
            metrics.HistogramOf("serve.latency_cycles");
        const double qwait_ms =
            metrics.HistogramOf("serve.queue_wait_cycles").Mean() *
            cycles_to_ms;
        std::printf(
            "%-10s %8d %8lld %10lld %12.1f %12.4f %12.4f %9.2fx "
            "%10.4f %6.0f\n",
            ZooModelName(model).c_str(), workers,
            static_cast<long long>(batch),
            static_cast<long long>(stats.batches), stats.throughput_rps,
            latency.P50() * cycles_to_ms, latency.P99() * cycles_to_ms,
            stats.throughput_rps / base_rps, qwait_ms,
            metrics.GaugeValue("serve.queue_depth_peak"));
      }
    }
    PrintRule(110);
  }
  std::printf(
      "\nshape: throughput scales with worker count (each worker is an "
      "accelerator instance; weight residency amortises per worker); a "
      "batch larger than requests/workers serialises the stream onto "
      "fewer workers and gives up that scaling.\n");

  // --- Fault campaign: serve under injected faults, check resilience ---
  {
    constexpr int kCampaignRequests = 64;
    const Network net = BuildZooModel(ZooModel::kMnist);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    std::vector<Tensor> inputs;
    for (int i = 0; i < kCampaignRequests; ++i)
      inputs.push_back(MakeInput(net, 500 + static_cast<std::uint64_t>(i)));

    struct CampaignRun {
      std::vector<serve::ServedRequest> records;
      serve::ServerStats stats;
    };
    auto serve = [&](const fault::FaultPlan& plan) {
      serve::ServeOptions options;
      options.replicas = 2;
      options.max_batch_size = 4;
      options.faults = plan;
      serve::InferenceServer server(net, design, weights, options);
      for (const Tensor& input : inputs) server.Submit(input, 0);
      return CampaignRun{server.Drain(), server.Stats()};
    };

    fault::FaultCampaignSpec spec;
    spec.seed = 7;
    spec.weight_flips = 120;
    spec.transients = 8;
    spec.stalls = 4;
    spec.invocation_span = kCampaignRequests / 2;  // requests / workers
    spec.workers = 2;
    const fault::FaultPlan plan =
        fault::FaultPlan::Generate(spec, design.memory_map);

    const CampaignRun clean = serve(fault::FaultPlan{});
    const CampaignRun faulty = serve(plan);

    std::int64_t ok = 0, identical = 0;
    for (std::size_t i = 0; i < faulty.records.size(); ++i) {
      if (faulty.records[i].status != StatusCode::kOk) continue;
      ++ok;
      if (faulty.records[i].output.storage() ==
          clean.records[i].output.storage())
        ++identical;
    }
    const serve::ServerStats& stats = faulty.stats;
    std::printf(
        "\n=== Fault campaign: MNIST, %d requests, 2 workers, plan "
        "seed=%llu (%zu events) ===\n",
        kCampaignRequests, static_cast<unsigned long long>(plan.seed),
        plan.events.size());
    std::printf("%s", stats.ToString().c_str());
    std::printf(
        "  resilience: %lld/%lld kOk outputs bit-identical to the "
        "fault-free run%s\n",
        static_cast<long long>(identical), static_cast<long long>(ok),
        identical == ok ? "" : "  ** MISMATCH **");
    if (identical != ok) return 1;
  }

  // --- Replica scaling: replica count under least-loaded routing ---
  {
    constexpr int kScaleRequests = 32;
    const Network net = BuildZooModel(ZooModel::kMnist);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    std::vector<Tensor> inputs;
    for (int i = 0; i < kScaleRequests; ++i)
      inputs.push_back(MakeInput(net, 900 + static_cast<std::uint64_t>(i)));

    auto serve_run = [&](int replicas) {
      serve::ServeOptions options;
      options.replicas = replicas;
      options.max_batch_size = 2;
      options.linger_cycles = 0;
      serve::InferenceServer server(net, design, weights, options);
      std::int64_t arrival = 0;
      for (const Tensor& input : inputs) {
        server.Submit(input, arrival);
        arrival += 40;
      }
      std::vector<serve::ServedRequest> records = server.Drain();
      return std::make_pair(std::move(records), server.Stats());
    };

    std::printf(
        "\n=== Replica scaling: MNIST, %d requests, batch <= 2, arrivals "
        "every 40 cycles (design generated once) ===\n",
        kScaleRequests);
    std::printf("%9s %9s %12s %12s %10s\n", "replicas", "batches", "req/s",
                "makespan_ms", "speedup");
    PrintRule(57);

    const auto [baseline_records, baseline_stats] = serve_run(1);
    bool identical = true;
    for (const int replicas : {1, 2, 4}) {
      const auto [records, stats] = serve_run(replicas);
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].status != StatusCode::kOk) identical = false;
        if (records[i].output.storage() !=
            baseline_records[i].output.storage())
          identical = false;
      }
      std::printf("%9d %9lld %12.1f %12.4f %9.2fx\n", replicas,
                  static_cast<long long>(stats.batches),
                  stats.throughput_rps, stats.makespan_seconds * 1e3,
                  baseline_stats.makespan_seconds / stats.makespan_seconds);
    }
    PrintRule(57);
    std::printf(
        "  cluster determinism: every output bit-identical to the "
        "1-replica run%s\n",
        identical ? "" : "  ** MISMATCH **");
    std::printf(
        "\nshape: least-loaded routing spreads batches and scales the "
        "makespan down with the pool.\n");
    if (!identical) return 1;
  }

  // --- Cluster chaos campaign: crash / hang / slow / route-fail over a
  // 4-replica pool, plus the hedging latency contract ---
  {
    constexpr int kChaosRequests = 64;
    constexpr int kChaosReplicas = 4;
    const Network net = BuildZooModel(ZooModel::kMnist);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const WeightStore weights = WeightStore::CreateRandom(net, rng);
    std::vector<Tensor> inputs;
    for (int i = 0; i < kChaosRequests; ++i)
      inputs.push_back(
          MakeInput(net, 1300 + static_cast<std::uint64_t>(i)));

    auto serve_chaos = [&](const fault::FaultPlan& plan,
                           std::int64_t hedge_after, std::int64_t gap) {
      serve::ServeOptions options;
      options.replicas = kChaosReplicas;
      options.max_batch_size = 2;
      options.faults = plan;
      options.hedge_after_cycles = hedge_after;
      options.breaker.enabled = true;
      options.breaker.failure_threshold = 1;
      options.breaker.cooldown_cycles = 2048;
      serve::InferenceServer server(net, design, weights, options);
      std::int64_t arrival = 0;
      for (const Tensor& input : inputs) {
        server.Submit(input, arrival);
        arrival += gap;
      }
      std::vector<serve::ServedRequest> records = server.Drain();
      return std::make_pair(std::move(records), server.Stats());
    };

    // Hedge once a batch's planned completion exceeds three steady
    // invocations past ready: normal batches stay under it, an
    // 8x-degraded batch trips it immediately.
    serve::InferenceServer probe(net, design, weights, {});
    const std::int64_t steady = probe.steady_cycles();
    probe.Drain();
    const std::int64_t hedge_after = 3 * steady;

    fault::FaultCampaignSpec spec;
    spec.seed = 11;
    spec.crashes = 2;
    spec.hangs = 2;
    spec.slow_replicas = 1;
    spec.route_fails = 3;
    spec.weight_flips = 40;
    spec.transients = 4;
    spec.invocation_span = kChaosRequests / kChaosReplicas;
    spec.workers = kChaosReplicas;
    const fault::FaultPlan plan =
        fault::FaultPlan::Generate(spec, design.memory_map);

    const auto [clean_records, clean_stats] =
        serve_chaos(fault::FaultPlan{}, hedge_after, 50);
    const auto [chaos_records, chaos_stats] =
        serve_chaos(plan, hedge_after, 50);

    // Zero lost requests: every submitted request has a completed
    // record, and every kOk output is bit-identical to fault-free.
    bool zero_lost =
        chaos_records.size() == static_cast<std::size_t>(kChaosRequests);
    std::int64_t ok = 0, identical = 0;
    for (std::size_t i = 0; i < chaos_records.size(); ++i) {
      if (chaos_records[i].status != StatusCode::kOk) continue;
      ++ok;
      if (chaos_records[i].output.storage() ==
          clean_records[i].output.storage())
        ++identical;
    }
    const bool fired = chaos_stats.hedges > 0 && chaos_stats.breaker_opens > 0;
    std::printf(
        "\n=== Cluster chaos: MNIST, %d requests, %d replicas, plan "
        "seed=%llu (%zu events), hedge after %lld cycles, breaker "
        "failures=1,cooldown=2048 ===\n",
        kChaosRequests, kChaosReplicas,
        static_cast<unsigned long long>(plan.seed), plan.events.size(),
        static_cast<long long>(hedge_after));
    std::printf("%s", chaos_stats.ToString().c_str());
    std::printf(
        "  resilience: %lld/%lld records complete, %lld/%lld kOk outputs "
        "bit-identical to fault-free, %lld hedges, %lld breaker opens%s%s\n",
        static_cast<long long>(chaos_records.size()),
        static_cast<long long>(kChaosRequests),
        static_cast<long long>(identical), static_cast<long long>(ok),
        static_cast<long long>(chaos_stats.hedges),
        static_cast<long long>(chaos_stats.breaker_opens),
        (zero_lost && identical == ok) ? "" : "  ** MISMATCH **",
        fired ? "" : "  ** HEDGING OR BREAKER NEVER FIRED **");
    if (!zero_lost || identical != ok || !fired) return 1;

    // Hedging contract: under a slow-replica-only campaign, hedged p99
    // must stay within the documented bound of the fault-free p99
    // (DESIGN.md: 5x — hedge_after of three steady invocations plus the
    // hedge's own service, against a one-invocation fault-free p99), at
    // unsaturated arrivals one steady invocation apart.
    fault::FaultCampaignSpec slow_spec;
    slow_spec.seed = 13;
    slow_spec.slow_replicas = 2;
    slow_spec.slow_factor = 8;
    slow_spec.slow_services = 16;
    slow_spec.invocation_span = kChaosRequests / kChaosReplicas;
    slow_spec.workers = kChaosReplicas;
    const fault::FaultPlan slow_plan =
        fault::FaultPlan::Generate(slow_spec, design.memory_map);

    const auto [steady_records, steady_stats] =
        serve_chaos(fault::FaultPlan{}, 0, steady);
    const auto [slow_records, slow_stats] = serve_chaos(slow_plan, 0, steady);
    const auto [hedged_records, hedged_stats] =
        serve_chaos(slow_plan, hedge_after, steady);
    bool hedged_identical = true;
    for (std::size_t i = 0; i < hedged_records.size(); ++i)
      if (hedged_records[i].status != StatusCode::kOk ||
          hedged_records[i].output.storage() !=
              steady_records[i].output.storage())
        hedged_identical = false;
    const double bound = 5.0;
    const bool within =
        hedged_stats.latency_p99_s <= bound * steady_stats.latency_p99_s &&
        hedged_stats.latency_p99_s < slow_stats.latency_p99_s;
    std::printf(
        "  hedging (slow-replica campaign, %lld hedges, %lld won): p99 "
        "fault-free %.4f ms, unhedged %.4f ms, hedged %.4f ms "
        "(%.2fx fault-free, bound %.1fx)%s%s\n",
        static_cast<long long>(hedged_stats.hedges),
        static_cast<long long>(hedged_stats.hedge_wins),
        steady_stats.latency_p99_s * 1e3, slow_stats.latency_p99_s * 1e3,
        hedged_stats.latency_p99_s * 1e3,
        hedged_stats.latency_p99_s / steady_stats.latency_p99_s, bound,
        within ? "" : "  ** BOUND EXCEEDED **",
        hedged_identical ? "" : "  ** OUTPUT MISMATCH **");
    if (!within || !hedged_identical) return 1;
  }

  // --- Planning alone: the simulated-time pass with no datapath ---
  {
    constexpr int kPlanRequests = 1000000;
    const Network net = BuildZooModel(ZooModel::kMnist);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    Rng rng(2016);
    const MemoryImage image =
        BuildHostImage(net, design, WeightStore::CreateRandom(net, rng));
    const SystemContext context(net, design, image);
    const serve::PlanCosts costs =
        serve::MakePlanCosts(design, context, "zynq-7045");
    // Arrivals at 0.9 of two replicas' steady capacity.
    std::vector<serve::RequestArrival> arrivals(kPlanRequests);
    for (int i = 0; i < kPlanRequests; ++i)
      arrivals[static_cast<std::size_t>(i)].arrival_cycle =
          static_cast<std::int64_t>(i) * costs.steady.cycles * 10 / 18;
    serve::ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 4;
    const auto start = std::chrono::steady_clock::now();
    const serve::ServePlan plan = serve::PlanServe(arrivals, options, costs);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf(
        "\n=== Planning alone: PlanServe over %d MNIST arrivals, 2 "
        "replicas, batch <= 4 (host wall time) ===\n"
        "  %lld batches planned in %.3f s: %.0f planned requests/s\n",
        kPlanRequests, static_cast<long long>(plan.stats.batches), seconds,
        kPlanRequests / seconds);
  }
  return 0;
}
