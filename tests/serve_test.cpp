// Tests for the batched inference server (src/serve): the batcher, the
// planner on its own, and the server end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/generator.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/batcher.h"
#include "serve/inference_server.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

using serve::AdmissionPolicy;
using serve::Batch;
using serve::Batcher;
using serve::BatchPolicy;
using serve::InferenceServer;
using serve::ServedRequest;
using serve::ServeOptions;
using serve::ServerState;
using serve::ServerStats;

struct Fixture {
  Network net;
  AcceleratorDesign design;
  WeightStore weights;

  explicit Fixture(ZooModel model = ZooModel::kCifar)
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
      inputs.push_back(RandomInput(100 + static_cast<std::uint64_t>(i)));
    return inputs;
  }
};

TEST(Batcher, ClosesOnMaxBatchSize) {
  Batcher batcher(BatchPolicy{.max_batch_size = 3, .linger_cycles = 1000});
  EXPECT_FALSE(batcher.Add(0, 10).has_value());
  EXPECT_FALSE(batcher.Add(1, 20).has_value());
  const auto batch = batcher.Add(2, 30);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->ready_cycle, 30);  // full batch goes immediately
  EXPECT_FALSE(batcher.Flush().has_value());
}

TEST(Batcher, LingerExpiryClosesPartialBatch) {
  Batcher batcher(BatchPolicy{.max_batch_size = 8, .linger_cycles = 100});
  EXPECT_FALSE(batcher.Add(0, 50).has_value());
  EXPECT_FALSE(batcher.Add(1, 120).has_value());  // inside window
  const auto batch = batcher.Add(2, 151);  // outside 50+100
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 2u);
  EXPECT_EQ(batch->ready_cycle, 150);  // first arrival + linger
  const auto rest = batcher.Flush();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->requests.size(), 1u);
  EXPECT_EQ(rest->ready_cycle, 151);  // flush dispatches immediately
}

TEST(Batcher, RejectsDecreasingArrivals) {
  Batcher batcher(BatchPolicy{.max_batch_size = 4, .linger_cycles = 0});
  EXPECT_FALSE(batcher.Add(0, 100).has_value());
  EXPECT_THROW(batcher.Add(1, 99), std::logic_error);
}

TEST(PlanServe, PlansWithoutAReplicaOrADatapath) {
  // The planner needs only costs: no network, image or context.  Two
  // replicas, batches of two, six requests at cycle 0 under
  // least-loaded routing (ties go to the lowest index).
  serve::PlanCosts costs;
  costs.cold = {.cycles = 100, .dram_bytes = 10, .joules = 1.0};
  costs.steady = {.cycles = 60, .dram_bytes = 5, .joules = 0.5};
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 2;
  const std::vector<serve::RequestArrival> arrivals(6);
  serve::ServePlan plan = serve::PlanServe(arrivals, options, costs);

  EXPECT_EQ(plan.stats.batches, 3);
  ASSERT_EQ(plan.requests.size(), 6u);
  const std::vector<int> replica{0, 0, 1, 1, 0, 0};
  const std::vector<std::int64_t> finish{100, 160, 100, 160, 220, 280};
  for (std::size_t i = 0; i < 6; ++i) {
    const ServedRequest& r = plan.requests[i];
    EXPECT_EQ(r.status, StatusCode::kOk) << i;
    EXPECT_EQ(r.replica, replica[i]) << i;
    EXPECT_EQ(r.finish_cycle, finish[i]) << i;
    EXPECT_EQ(r.output.size(), 0) << i;  // the executor's job
  }
  EXPECT_EQ(plan.requests[0].joules, 1.0);  // cold
  EXPECT_EQ(plan.requests[4].dram_bytes, 5);  // warm across batches
  // Replica 0 runs four requests in order, cold only on the first.
  ASSERT_EQ(plan.replicas[0].ops.size(), 4u);
  const std::vector<std::int64_t> ids{0, 1, 4, 5};
  for (std::size_t i = 0; i < 4; ++i) {
    const serve::ReplicaOp& op = plan.replicas[0].ops[i];
    EXPECT_EQ(op.kind, serve::ReplicaOp::Kind::kRun);
    EXPECT_EQ(op.arg, ids[i]);
    EXPECT_EQ(op.warm, i > 0);
  }
  serve::SummarizePlan(plan, 100.0);
  EXPECT_EQ(plan.stats.replica_busy_cycles[0], 100 + 3 * 60);
  EXPECT_EQ(plan.stats.replica_busy_cycles[1], 100 + 60);
}

TEST(InferenceServer, MatchesSequentialSystemContextBitExactly) {
  Fixture fx;
  const auto inputs = fx.Inputs(6);

  MemoryImage image = BuildHostImage(fx.net, fx.design, fx.weights);
  const SystemContext context(fx.net, fx.design, image);
  std::vector<Tensor> sequential;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    sequential.push_back(context.Run(image, inputs[i], /*warm=*/i > 0).output);

  for (int workers : {2, 3}) {
    ServeOptions options;
    options.replicas = workers;
    options.max_batch_size = 2;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    const auto& served = server.Drain();
    ASSERT_EQ(served.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      EXPECT_EQ(MaxAbsDiff(served[i].output, sequential[i]), 0.0)
          << "workers=" << workers << " request " << i;
  }
}

// Replay runs a replica's consecutive requests as one batch-major pass,
// but a bit flip planned between two requests of one batch splits the
// group there: the requests before it read the clean weights and the
// ones after it the flipped weights, each output equal to replaying the
// requests one at a time.
TEST(InferenceServer, FlipInsideABatchSplitsTheReplayGroup) {
  Fixture fx(ZooModel::kMnist);
  const auto inputs = fx.Inputs(4);
  std::int64_t weight_addr = -1;
  for (const MemoryRegion& r : fx.design.memory_map.regions())
    if (weight_addr < 0 && StartsWith(r.name, "weights:"))
      weight_addr = r.base + 1;  // the first weight's high byte
  ASSERT_GE(weight_addr, 0);
  constexpr int kBit = 6;
  constexpr std::int64_t kFlipAt = 2;  // before the third request

  // Not marked as a weight-region flip, so the replica plans no
  // integrity check and the flip stays in the weights to the end.
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 4;
  options.faults.events.push_back(fault::FaultEvent{
      fault::FaultKind::kBitFlip, 0, kFlipAt, weight_addr, kBit, false});
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (const Tensor& input : inputs) server.Submit(input, 0);
  const auto& served = server.Drain();
  EXPECT_EQ(server.Stats().batches, 1);

  MemoryImage image = BuildHostImage(fx.net, fx.design, fx.weights);
  const MemoryImage clean = image;
  const SystemContext context(fx.net, fx.design, image);
  std::vector<Tensor> want;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i == kFlipAt) image.FlipBit(weight_addr, kBit);
    want.push_back(context.Run(image, inputs[i]).output);
  }
  MemoryImage unflipped = clean;
  EXPECT_NE(SystemContext(fx.net, fx.design, unflipped)
                .Run(unflipped, inputs[kFlipAt])
                .output.storage(),
            want[kFlipAt].storage())
      << "the flip must reach the requests after it";

  ASSERT_EQ(served.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(served[i].status, StatusCode::kOk) << "request " << i;
    EXPECT_EQ(served[i].output.storage(), want[i].storage())
        << "request " << i;
  }
}

TEST(InferenceServer, DeterministicScheduleAcrossRuns) {
  Fixture fx(ZooModel::kAnn1Jpeg);
  const auto inputs = fx.Inputs(9);
  auto run = [&] {
    ServeOptions options;
    options.replicas = 3;
    options.max_batch_size = 2;
    options.linger_cycles = 500;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 200;
    }
    std::vector<ServedRequest> copy = server.Drain();
    return std::make_pair(copy, server.Stats());
  };
  const auto [a, stats_a] = run();
  const auto [b, stats_b] = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].replica, b[i].replica) << i;
    EXPECT_EQ(a[i].batch_id, b[i].batch_id) << i;
    EXPECT_EQ(a[i].start_cycle, b[i].start_cycle) << i;
    EXPECT_EQ(a[i].finish_cycle, b[i].finish_cycle) << i;
    EXPECT_EQ(MaxAbsDiff(a[i].output, b[i].output), 0.0) << i;
  }
  EXPECT_EQ(stats_a.makespan_cycles, stats_b.makespan_cycles);
  EXPECT_EQ(stats_a.total_dram_bytes, stats_b.total_dram_bytes);
}

TEST(InferenceServer, ThroughputScalesWithWorkers) {
  Fixture fx(ZooModel::kAnn0Fft);
  const auto inputs = fx.Inputs(12);
  auto makespan = [&](int workers) {
    ServeOptions options;
    options.replicas = workers;
    options.max_batch_size = 1;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    server.Drain();
    return server.Stats().makespan_cycles;
  };
  const std::int64_t one = makespan(1);
  const std::int64_t two = makespan(2);
  const std::int64_t four = makespan(4);
  EXPECT_LT(two, one);
  EXPECT_LT(four, two);
}

TEST(InferenceServer, ScheduleMatchesColdSteadyCycleMath) {
  Fixture fx(ZooModel::kCifar);  // weights fit the buffer: steady < cold
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 2;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (const Tensor& input : fx.Inputs(4)) server.Submit(input, 0);
  const auto& served = server.Drain();

  const std::int64_t cold = server.cold_cycles();
  const std::int64_t steady = server.steady_cycles();
  EXPECT_LT(steady, cold);
  // Two batches of two, all arriving at cycle 0: each worker takes one
  // batch (cold + steady cycles), starting at cycle 0.
  ASSERT_EQ(served.size(), 4u);
  EXPECT_EQ(served[0].replica, 0);
  EXPECT_EQ(served[2].replica, 1);
  for (const ServedRequest& r : served) {
    EXPECT_EQ(r.start_cycle, 0);
    EXPECT_EQ(r.service_cycles,
              r.id % 2 == 0 ? cold : steady);  // first-in-batch is cold
  }
  EXPECT_EQ(served[1].finish_cycle, cold + steady);
  EXPECT_EQ(served[3].finish_cycle, cold + steady);
}

TEST(InferenceServer, StatsAggregateAndPercentilesOrdered) {
  Fixture fx(ZooModel::kAnn1Jpeg);
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 4;
  options.queue_capacity = 2;  // no effect under the default kBlock
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  std::int64_t total_dram = 0;
  for (const Tensor& input : fx.Inputs(10)) server.Submit(input, 0);
  const auto& served = server.Drain();
  for (const ServedRequest& r : served) {
    EXPECT_GT(r.service_cycles, 0);
    EXPECT_GT(r.dram_bytes, 0);
    EXPECT_GT(r.joules, 0.0);
    total_dram += r.dram_bytes;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests, 10);
  EXPECT_GT(stats.batches, 0);
  EXPECT_EQ(stats.total_dram_bytes, total_dram);
  EXPECT_GT(stats.total_joules, 0.0);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_LE(stats.latency_p50_s, stats.latency_p90_s);
  EXPECT_LE(stats.latency_p90_s, stats.latency_p99_s);
  EXPECT_LE(stats.latency_p99_s, stats.latency_max_s);
  for (int w = 0; w < stats.replicas; ++w) {
    EXPECT_GE(stats.WorkerUtilization(w), 0.0);
    EXPECT_LE(stats.WorkerUtilization(w), 1.0);
  }
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("requests"), std::string::npos);
  EXPECT_NE(text.find("replica 1"), std::string::npos);
}

TEST(InferenceServer, ObservabilitySpansTileLatency) {
  // Each request's queue-residency span plus its service span must
  // exactly tile its reported latency, and the summed service spans
  // must equal the replicas' busy-cycle accounting in Stats().
  Fixture fx(ZooModel::kMnist);
  const auto inputs = fx.Inputs(6);
  auto run = [&](obs::Tracer& tracer, obs::MetricsRegistry& metrics) {
    ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 2;
    options.linger_cycles = 100;
    options.tracer = &tracer;
    options.metrics = &metrics;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 50;
    }
    std::vector<ServedRequest> served = server.Drain();
    return std::make_pair(served, server.Stats());
  };

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const auto [served, stats] = run(tracer, metrics);
  const auto spans = tracer.Sorted();
  ASSERT_FALSE(spans.empty());

  std::vector<std::int64_t> span_busy(2, 0);
  for (const ServedRequest& r : served) {
    const std::string req_name =
        StrFormat("req %lld", static_cast<long long>(r.id));
    const obs::Span* queued = nullptr;
    const obs::Span* service = nullptr;
    for (const obs::Span& s : spans) {
      if (s.name != req_name) continue;
      if (s.track == "serve/queue" && s.async && s.id == r.id) queued = &s;
      if (s.track == StrFormat("serve/replica %d", r.replica)) service = &s;
    }
    ASSERT_NE(queued, nullptr) << req_name;
    ASSERT_NE(service, nullptr) << req_name;
    // Queued then service, back to back, covering the whole latency.
    EXPECT_EQ(queued->start, r.arrival_cycle) << req_name;
    EXPECT_EQ(queued->end, service->start) << req_name;
    EXPECT_EQ(service->end, r.finish_cycle) << req_name;
    EXPECT_EQ((queued->end - queued->start) +
                  (service->end - service->start),
              r.finish_cycle - r.arrival_cycle)
        << req_name;
    EXPECT_EQ(service->end - service->start, r.service_cycles) << req_name;
    span_busy[static_cast<std::size_t>(r.replica)] += r.service_cycles;
  }
  ASSERT_EQ(stats.replica_busy_cycles.size(), 2u);
  EXPECT_EQ(span_busy[0], stats.replica_busy_cycles[0]);
  EXPECT_EQ(span_busy[1], stats.replica_busy_cycles[1]);

  // The published metrics agree with the aggregate stats.
  EXPECT_EQ(metrics.CounterValue("serve.requests"), stats.requests);
  EXPECT_EQ(metrics.CounterValue("serve.batches"), stats.batches);
  EXPECT_EQ(metrics.CounterValue("serve.dram_bytes"),
            stats.total_dram_bytes);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("serve.makespan_cycles"),
                   static_cast<double>(stats.makespan_cycles));
  const obs::HistogramStats service_hist =
      metrics.HistogramOf("serve.service_cycles");
  EXPECT_EQ(service_hist.count, stats.requests);
  EXPECT_DOUBLE_EQ(service_hist.sum,
                   static_cast<double>(span_busy[0] + span_busy[1]));
  for (int w = 0; w < 2; ++w)
    EXPECT_DOUBLE_EQ(
        metrics.GaugeValue(StrFormat("serve.replica%d.busy_cycles", w)),
        static_cast<double>(stats.replica_busy_cycles[
            static_cast<std::size_t>(w)]));

  // A second identical run emits byte-identical trace and metrics files.
  obs::Tracer tracer2;
  obs::MetricsRegistry metrics2;
  run(tracer2, metrics2);
  EXPECT_EQ(obs::WriteChromeTrace(tracer, fx.design.config.frequency_mhz),
            obs::WriteChromeTrace(tracer2, fx.design.config.frequency_mhz));
  EXPECT_EQ(metrics.ToJson(), metrics2.ToJson());
}

TEST(InferenceServer, SubmitAfterDrainThrowsShutdownError) {
  // The documented intake contract: once Drain() has been called the
  // server never accepts another request; Submit throws
  // db::ShutdownError (an Error subclass) naming the lifecycle state.
  Fixture fx(ZooModel::kAnn0Fft);
  InferenceServer server(fx.net, fx.design, fx.weights);
  EXPECT_EQ(server.state(), ServerState::kServing);
  server.Submit(fx.RandomInput(1), 0);
  server.Drain();
  EXPECT_EQ(server.state(), ServerState::kStopped);
  try {
    server.Submit(fx.RandomInput(2), 0);
    FAIL() << "Submit after Drain must throw";
  } catch (const ShutdownError& e) {
    EXPECT_NE(std::string(e.what()).find("stopped"), std::string::npos);
  }
}

TEST(InferenceServer, DeadlineExpiredRequestSkipsDatapath) {
  // replicas=1, batch=1: request 1 cannot start before request 0's cold
  // invocation finishes, so an absolute deadline of 1 cycle expires it.
  Fixture fx(ZooModel::kAnn0Fft);
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  server.Submit(fx.RandomInput(1), 0);
  server.Submit(fx.RandomInput(2), 0, /*deadline_cycle=*/1);
  server.Submit(fx.RandomInput(3), 0);
  const auto& served = server.Drain();
  const std::int64_t cold = server.cold_cycles();
  const std::int64_t steady = server.steady_cycles();

  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].status, StatusCode::kOk);
  EXPECT_EQ(served[1].status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served[2].status, StatusCode::kOk);
  EXPECT_EQ(served[1].output.size(), 0);  // never produced
  EXPECT_EQ(served[1].finish_cycle, cold);  // expired at service point
  // The expired request occupied no datapath slot: request 2 runs at
  // its scheduled start and the replica's busy cycles exclude request 1.
  EXPECT_EQ(served[2].finish_cycle, cold + 2 * steady);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.replica_busy_cycles[0], cold + steady);
}

TEST(InferenceServer, DefaultRelativeDeadlineApplies) {
  // With deadline_cycles set, every Submit without an explicit deadline
  // gets arrival + deadline_cycles; an impossible default expires all
  // but the request that starts immediately.
  Fixture fx(ZooModel::kAnn0Fft);
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 1;
  options.deadline_cycles = 1;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (int i = 0; i < 3; ++i) server.Submit(fx.RandomInput(i), 0);
  const auto& served = server.Drain();
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].status, StatusCode::kOk);  // starts at cycle 0
  EXPECT_EQ(served[1].status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served[2].status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served[0].deadline_cycle, 1);
}

TEST(InferenceServer, ShedOldestIsDeterministicInSimulatedTime) {
  // queue_capacity=2, batch=4, all arrivals at cycle 0: the simulated
  // queue fills at two outstanding requests, so ids 2..7 each evict the
  // oldest live entry — a pure function of the arrival stream.  The
  // survivors' outputs stay bit-identical to sequential inference.
  Fixture fx(ZooModel::kAnn0Fft);
  const auto inputs = fx.Inputs(8);
  auto run = [&] {
    ServeOptions options;
    options.replicas = 1;
    options.max_batch_size = 4;
    options.queue_capacity = 2;
    options.admission = AdmissionPolicy::kShedOldest;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    for (const Tensor& input : inputs) server.Submit(input, 0);
    std::vector<ServedRequest> copy = server.Drain();
    return std::make_pair(copy, server.Stats());
  };
  const auto [served, stats] = run();
  ASSERT_EQ(served.size(), 8u);
  std::vector<std::int64_t> ok_ids, shed_ids;
  for (const ServedRequest& r : served) {
    if (r.status == StatusCode::kOk) ok_ids.push_back(r.id);
    if (r.status == StatusCode::kShed) shed_ids.push_back(r.id);
  }
  EXPECT_EQ(ok_ids, (std::vector<std::int64_t>{2, 3, 6, 7}));
  EXPECT_EQ(shed_ids, (std::vector<std::int64_t>{0, 1, 4, 5}));
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.completed, 4);

  MemoryImage image = BuildHostImage(fx.net, fx.design, fx.weights);
  const SystemContext context(fx.net, fx.design, image);
  for (const std::int64_t id : ok_ids) {
    const auto i = static_cast<std::size_t>(id);
    EXPECT_EQ(
        MaxAbsDiff(served[i].output, context.Run(image, inputs[i]).output),
        0.0)
        << "request " << id;
  }

  // Same arrival stream, same shed set: the decision is simulated-time.
  const auto [served2, stats2] = run();
  for (std::size_t i = 0; i < served.size(); ++i)
    EXPECT_EQ(served[i].status, served2[i].status) << i;
  EXPECT_EQ(stats2.shed, 4);
}

TEST(InferenceServer, RejectPolicyRefusesOverload) {
  Fixture fx(ZooModel::kAnn0Fft);
  ServeOptions options;
  options.replicas = 1;
  options.max_batch_size = 4;
  options.queue_capacity = 2;
  options.admission = AdmissionPolicy::kReject;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (const Tensor& input : fx.Inputs(4)) server.Submit(input, 0);
  const auto& served = server.Drain();
  ASSERT_EQ(served.size(), 4u);
  EXPECT_EQ(served[0].status, StatusCode::kOk);
  EXPECT_EQ(served[1].status, StatusCode::kOk);
  EXPECT_EQ(served[2].status, StatusCode::kRejected);
  EXPECT_EQ(served[3].status, StatusCode::kRejected);
  // A rejected request is disposed of at its arrival cycle.
  EXPECT_EQ(served[2].finish_cycle, served[2].arrival_cycle);
  EXPECT_EQ(server.Stats().rejected, 2);
}

TEST(InferenceServer, DrainWithNoRequestsIsEmpty) {
  Fixture fx(ZooModel::kAnn0Fft);
  InferenceServer server(fx.net, fx.design, fx.weights);
  EXPECT_TRUE(server.Drain().empty());
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.makespan_cycles, 0);
}

TEST(InferenceServer, LatencyPercentilesMatchTheRegistryHistogram) {
  // ServerStats reads its percentiles off the same shared quantile
  // histogram the server publishes as serve.latency_cycles, so the two
  // surfaces can never disagree — the BENCH_serve.json contract.
  Fixture fx(ZooModel::kMnist);
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 4;
  options.metrics = &metrics;
  InferenceServer server(fx.net, fx.design, fx.weights, options);
  for (const Tensor& input : fx.Inputs(12)) server.Submit(input, 0);
  server.Drain();
  const ServerStats stats = server.Stats();
  const obs::HistogramStats published =
      metrics.HistogramOf("serve.latency_cycles");
  ASSERT_EQ(published.count, stats.latency_cycles.count);
  EXPECT_EQ(published.buckets, stats.latency_cycles.buckets);
  const double cycles_to_s = 1.0 / (stats.frequency_mhz * 1e6);
  EXPECT_DOUBLE_EQ(stats.latency_p50_s, published.P50() * cycles_to_s);
  EXPECT_DOUBLE_EQ(stats.latency_p90_s, published.P90() * cycles_to_s);
  EXPECT_DOUBLE_EQ(stats.latency_p99_s, published.P99() * cycles_to_s);
  EXPECT_DOUBLE_EQ(stats.latency_max_s, published.max * cycles_to_s);
}

TEST(InferenceServer, TwoServersShareOneRegistry) {
  // Draining adds to what a registry already holds: two servers
  // publishing serve.*, fault.*, cluster.* and sim.* into one registry
  // export exactly what merging their separate registries does.
  Fixture fx(ZooModel::kMnist);
  const auto serve = [&](int variant, obs::MetricsRegistry& metrics) {
    ServeOptions options;
    options.metrics = &metrics;
    options.sim_metrics = &metrics;
    if (variant == 0) {
      options.replicas = 2;
      options.max_batch_size = 4;
      fault::FaultCampaignSpec spec;
      spec.seed = 7;
      spec.weight_flips = 20;
      spec.transients = 6;
      spec.stalls = 2;
      spec.crashes = 1;
      spec.invocation_span = 8;
      spec.workers = 2;
      options.faults = fault::FaultPlan::Generate(spec, fx.design.memory_map);
      // More transient failures on one invocation than kMaxRetries
      // retries, so a request completes kFaulted.
      for (int i = 0; i <= serve::kMaxRetries; ++i) {
        fault::FaultEvent event;
        event.kind = fault::FaultKind::kTransient;
        event.replica = 1;
        event.invocation = 1;
        options.faults.events.push_back(event);
      }
    } else {
      options.replicas = 3;
      options.max_batch_size = 2;
      options.linger_cycles = 1000;
      options.queue_capacity = 1;
      options.admission = AdmissionPolicy::kShedOldest;
    }
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : fx.Inputs(16)) {
      server.Submit(input, arrival);
      arrival += 300;
    }
    server.Drain();
  };

  obs::MetricsRegistry shared;
  serve(0, shared);
  serve(1, shared);
  obs::MetricsRegistry first, second, merged;
  serve(0, first);
  serve(1, second);
  merged.MergeFrom(first);
  merged.MergeFrom(second);
  EXPECT_EQ(shared.ToJson(), merged.ToJson());
  EXPECT_EQ(shared.CounterValue("serve.requests"), 32);
  EXPECT_EQ(shared.CounterValue("sim.invocations"),
            first.CounterValue("sim.invocations") +
                second.CounterValue("sim.invocations"));
  EXPECT_EQ(shared.HistogramOf("serve.latency_cycles").count,
            first.CounterValue("serve.completed") +
                second.CounterValue("serve.completed"));
  EXPECT_GT(first.CounterValue("fault.injected.transient"), 0);
  EXPECT_GT(first.CounterValue("serve.faulted"), 0);
  EXPECT_GT(second.CounterValue("serve.shed"), 0);
}

TEST(InferenceServer, LoadTimeSeriesIsDeterministicAndWellFormed) {
  Fixture fx(ZooModel::kMnist);
  const auto inputs = fx.Inputs(12);
  auto run = [&](obs::TimeSeriesRecorder& ts) {
    ServeOptions options;
    options.replicas = 2;
    options.max_batch_size = 2;
    options.timeseries = &ts;
    InferenceServer server(fx.net, fx.design, fx.weights, options);
    std::int64_t arrival = 0;
    for (const Tensor& input : inputs) {
      server.Submit(input, arrival);
      arrival += 50;
    }
    server.Drain();
    return server.Stats();
  };

  obs::TimeSeriesRecorder a;
  const ServerStats stats = run(a);

  // Well-formed: every series sampled on the same power-of-two grid
  // covering the makespan, busy fractions within [0, 1], queue depth
  // and in-flight returning to zero once the run drains.
  // load.* plus one busy and one health series per replica.
  EXPECT_EQ(a.size(), 3u + 2u * 2u);
  const std::int64_t interval = a.sample_interval();
  EXPECT_GE(interval, 1);
  EXPECT_EQ(interval & (interval - 1), 0);  // power of two
  const auto depth = a.SeriesOf("load.queue_depth");
  ASSERT_FALSE(depth.empty());
  EXPECT_LE(depth.size(), 65u);
  EXPECT_GE(depth.back().cycle, stats.makespan_cycles);
  EXPECT_DOUBLE_EQ(depth.back().value, 0.0);
  for (std::size_t i = 0; i < depth.size(); ++i)
    EXPECT_EQ(depth[i].cycle, static_cast<std::int64_t>(i) * interval);
  const auto in_flight = a.SeriesOf("load.in_flight");
  ASSERT_EQ(in_flight.size(), depth.size());
  EXPECT_DOUBLE_EQ(in_flight.back().value, 0.0);
  const auto sheds = a.SeriesOf("load.sheds");
  ASSERT_EQ(sheds.size(), depth.size());
  EXPECT_DOUBLE_EQ(sheds.back().value, 0.0);  // nothing shed here
  for (int w = 0; w < 2; ++w) {
    const auto busy = a.SeriesOf(StrFormat("load.replica%d.busy", w));
    ASSERT_EQ(busy.size(), depth.size());
    EXPECT_DOUBLE_EQ(busy.front().value, 0.0);  // no window before cycle 0
    for (const obs::TimeSeriesPoint& p : busy) {
      EXPECT_GE(p.value, 0.0);
      EXPECT_LE(p.value, 1.0);
    }
    // Fault-free run: every replica reads healthy (code 0) throughout.
    const auto health =
        a.SeriesOf(StrFormat("load.replica%d.health", w));
    ASSERT_EQ(health.size(), depth.size());
    for (const obs::TimeSeriesPoint& p : health)
      EXPECT_DOUBLE_EQ(p.value, 0.0);
  }

  // Deterministic: a second identical run exports identical bytes.
  obs::TimeSeriesRecorder b;
  run(b);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(RetryBackoff, PinsTheSaturatingShiftArithmetic) {
  const std::int64_t cap = std::int64_t{1} << 32;
  // Plain doubling while the shift stays inside the cap.
  EXPECT_EQ(serve::RetryBackoffCycles(64, 0, cap), 64);
  EXPECT_EQ(serve::RetryBackoffCycles(64, 1, cap), 128);
  EXPECT_EQ(serve::RetryBackoffCycles(64, 3, cap), 512);
  // Saturation: once base << attempt would pass the cap, the cap wins —
  // computed without ever shifting past the int64 width.
  EXPECT_EQ(serve::RetryBackoffCycles(64, 26, cap), cap);
  EXPECT_EQ(serve::RetryBackoffCycles(64, 62, cap), cap);
  EXPECT_EQ(serve::RetryBackoffCycles(64, 63, cap), cap);
  EXPECT_EQ(serve::RetryBackoffCycles(64, 1000, cap), cap);
  EXPECT_EQ(serve::RetryBackoffCycles(1, 62, std::int64_t{1} << 62),
            std::int64_t{1} << 62);
  // Exact boundary: the largest attempt whose shift still fits.
  EXPECT_EQ(serve::RetryBackoffCycles(1, 31, cap), std::int64_t{1} << 31);
  EXPECT_EQ(serve::RetryBackoffCycles(1, 32, cap), cap);
  // Degenerate inputs: no backoff configured, clamped attempt.
  EXPECT_EQ(serve::RetryBackoffCycles(0, 5, cap), 0);
  EXPECT_EQ(serve::RetryBackoffCycles(-8, 5, cap), 0);
  EXPECT_EQ(serve::RetryBackoffCycles(64, -3, cap), 64);
}

// Drain racing concurrent Submits must never lose accounting: every
// Submit either returns an id (its record exists and completes) or
// throws ShutdownError — under all three admission policies.  Run with
// the `threads` label under TSan by scripts/tier1.sh, which also covers
// the executor's replica threads.
void DrainVsSubmitRace(AdmissionPolicy admission) {
  Fixture fx(ZooModel::kAnn0Fft);
  const Tensor input = fx.RandomInput(9);
  ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 2;
  options.queue_capacity = 4;
  options.admission = admission;
  InferenceServer server(fx.net, fx.design, fx.weights, options);

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 8;
  std::atomic<std::int64_t> accepted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          server.Submit(input, 0);
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const ShutdownError&) {
          return;  // intake closed underneath us: the documented race
        }
      }
    });
  }
  const std::vector<ServedRequest>& served = server.Drain();
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(server.state(), ServerState::kStopped);

  // Exact accounting: every Submit that returned an id has a record and
  // a Submit that lost the race to Drain throws without one; every kOk
  // record belongs to an accepted Submit, and the stats partition all
  // records without loss.
  const std::int64_t ok_accepted = accepted.load(std::memory_order_relaxed);
  EXPECT_EQ(served.size(), static_cast<std::size_t>(ok_accepted));
  std::int64_t ok_records = 0;
  for (const ServedRequest& r : served)
    if (r.status == StatusCode::kOk) ++ok_records;
  EXPECT_LE(ok_records, ok_accepted);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed + stats.shed + stats.rejected +
                stats.deadline_exceeded + stats.faulted,
            static_cast<std::int64_t>(served.size()));
  for (const ServedRequest& r : served) {
    if (r.status != StatusCode::kOk) continue;
    EXPECT_GT(r.output.size(), 0) << "request " << r.id;
  }
}

TEST(InferenceServerRace, DrainVsSubmitUnderBlock) {
  DrainVsSubmitRace(AdmissionPolicy::kBlock);
}

TEST(InferenceServerRace, DrainVsSubmitUnderReject) {
  DrainVsSubmitRace(AdmissionPolicy::kReject);
}

TEST(InferenceServerRace, DrainVsSubmitUnderShedOldest) {
  DrainVsSubmitRace(AdmissionPolicy::kShedOldest);
}

}  // namespace
}  // namespace db
