#include "serve/inference_server.h"

#include <algorithm>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "sim/power_model.h"

namespace db::serve {

namespace {

/// Cycles of `intervals` (sorted, disjoint) falling inside the window
/// [begin, end) — the per-replica busy share a time-series sample reads.
std::int64_t BusyInWindow(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
    std::int64_t begin, std::int64_t end) {
  std::int64_t busy = 0;
  for (const auto& [lo, hi] : intervals) {
    if (lo >= end) break;  // sorted: nothing later can overlap
    busy += std::max<std::int64_t>(
        0, std::min(hi, end) - std::max(lo, begin));
  }
  return busy;
}

/// Replay replica `r`'s op list on its own image and context.  Each
/// run of consecutive kRun ops (no flip or integrity check between
/// them), up to the plan's batch size, goes through one batch-major
/// RunBatch, which leaves outputs and image bytes as the same requests
/// run one at a time would.
void Replay(ServePlan& plan, std::size_t r, SystemReplica& replica,
            std::span<const Tensor> inputs, const MemoryImage& provisioned,
            const MemoryMap& map, std::uint64_t reference) {
  const std::vector<ReplicaOp>& ops = plan.replicas[r].ops;
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max<std::int64_t>(plan.max_batch_size, 1));
  std::vector<const Tensor*> batch;
  for (std::size_t i = 0; i < ops.size();) {
    const ReplicaOp& op = ops[i];
    switch (op.kind) {
      case ReplicaOp::Kind::kFlip:
        replica.image.FlipBit(op.arg, op.bit);
        ++i;
        break;
      case ReplicaOp::Kind::kVerify: {
        ++i;
        const bool mismatch =
            fault::WeightChecksum(replica.image, map) != reference;
        DB_CHECK_MSG(mismatch == op.scrub,
                     "weight checksum disagrees with the planned scrub");
        if (!mismatch) break;
        fault::ScrubWeights(replica.image, provisioned, map);
        DB_CHECK_MSG(fault::WeightChecksum(replica.image, map) == reference,
                     "scrub failed to restore the weight regions");
        break;
      }
      case ReplicaOp::Kind::kRun: {
        batch.clear();
        for (std::size_t j = i; j < ops.size() && batch.size() < max_batch &&
                                ops[j].kind == ReplicaOp::Kind::kRun;
             ++j)
          batch.push_back(&inputs[static_cast<std::size_t>(ops[j].arg)]);
        std::vector<Tensor> outputs =
            replica.context->RunBatch(replica.image, batch);
        for (Tensor& output : outputs)
          plan.requests[static_cast<std::size_t>(ops[i++].arg)].output =
              std::move(output);
        break;
      }
    }
  }
}

}  // namespace

PlanCosts MakePlanCosts(const AcceleratorDesign& design,
                        const SystemContext& context,
                        const std::string& device_name) {
  const DeviceInfo& device = DeviceCatalog(device_name);
  const auto cost = [&](bool warm) {
    const PerfResult& perf = context.perf(warm);
    return InvocationCost{
        perf.total_cycles, perf.total_dram_bytes,
        EstimateEnergy(design.resources.total, perf, device).total_joules};
  };
  PlanCosts costs;
  costs.cold = cost(false);
  costs.steady = cost(true);
  // One scrub-and-reload moves the weight bytes over the DRAM port.
  const std::int64_t port_bytes =
      design.config.ElementBytes() * design.config.memory_port_elems;
  costs.scrub_cycles = std::max<std::int64_t>(
      CeilDiv(fault::WeightRegionBytes(design.memory_map),
              std::max<std::int64_t>(port_bytes, 1)),
      1);
  for (const MemoryRegion& region : design.memory_map.regions())
    if (StartsWith(region.name, "weights:"))
      costs.weight_regions.emplace_back(region.base, region.end());
  return costs;
}

void ExecutePlan(ServePlan& plan, std::span<SystemReplica> replicas,
                 std::span<const Tensor> inputs,
                 const MemoryImage& provisioned, const MemoryMap& map) {
  DB_CHECK(replicas.size() == plan.replicas.size());
  bool verifies = false;
  for (const ReplicaPlan& replica : plan.replicas)
    for (const ReplicaOp& op : replica.ops)
      verifies = verifies || op.kind == ReplicaOp::Kind::kVerify;
  const std::uint64_t reference =
      verifies ? fault::WeightChecksum(provisioned, map) : 0;

  // Replica 0 replays on the calling thread, every other replica with
  // work on its own; a failure is rethrown here once all have joined.
  std::vector<std::exception_ptr> errors(replicas.size());
  const auto replay = [&](std::size_t r) {
    try {
      Replay(plan, r, replicas[r], inputs, provisioned, map, reference);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t r = 1; r < replicas.size(); ++r)
    if (!plan.replicas[r].ops.empty()) threads.emplace_back(replay, r);
  replay(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

InferenceServer::InferenceServer(const Network& net,
                                 const AcceleratorDesign& design,
                                 const WeightStore& weights,
                                 ServeOptions options)
    : design_(design),
      options_(std::move(options)),
      provisioned_(BuildHostImage(net, design, weights)) {
  DB_CHECK_MSG(options_.replicas >= 1, "server needs at least one replica");
  replicas_ = ReplicateSystem(net, design, provisioned_, options_.replicas);
  costs_ = MakePlanCosts(design, *replicas_.front().context,
                         options_.device_name);
}

std::int64_t InferenceServer::Submit(Tensor input,
                                     std::int64_t arrival_cycle,
                                     std::int64_t deadline_cycle) {
  std::lock_guard<std::mutex> lock(mu_);
  const ServerState state = state_.load();
  if (state != ServerState::kServing)
    throw ShutdownError(
        StrFormat("InferenceServer cannot accept requests: intake is "
                  "closed (state: %s)",
                  ServerStateName(state)));
  DB_CHECK_MSG(arrival_cycle >= (arrivals_.empty()
                                     ? 0
                                     : arrivals_.back().arrival_cycle),
               "arrival cycles must be non-decreasing");
  DB_CHECK_MSG(deadline_cycle == 0 || deadline_cycle >= arrival_cycle,
               "deadline precedes arrival");
  arrivals_.push_back({arrival_cycle, deadline_cycle});
  inputs_.push_back(std::move(input));
  return static_cast<std::int64_t>(arrivals_.size()) - 1;
}

const std::vector<ServedRequest>& InferenceServer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!plan_) {
    state_.store(ServerState::kDraining);
    ServePlan plan = PlanServe(arrivals_, options_, costs_);
    ExecutePlan(plan, replicas_, inputs_, provisioned_, design_.memory_map);
    std::vector<Tensor>().swap(inputs_);  // every input has been served
    SummarizePlan(plan, design_.config.frequency_mhz);
    plan_.emplace(std::move(plan));
    const ServerStats& stats = plan_->stats;
    if (options_.sim_metrics != nullptr) {
      const SystemContext& context = *replicas_.front().context;
      if (stats.cold_runs > 0)
        PublishPerfMetrics(context.perf(false), *options_.sim_metrics,
                           stats.cold_runs);
      if (stats.warm_runs > 0)
        PublishPerfMetrics(context.perf(true), *options_.sim_metrics,
                           stats.warm_runs);
    }
    if (options_.tracer != nullptr) PublishTrace(*options_.tracer);
    if (options_.metrics != nullptr) PublishMetrics(*options_.metrics);
    if (options_.timeseries != nullptr)
      PublishTimeSeries(*options_.timeseries);
    state_.store(ServerState::kStopped);
  }
  return plan_->requests;
}

void InferenceServer::PublishTrace(obs::Tracer& tracer) const {
  // Span emission order — and so the exported trace bytes — is a pure
  // function of the plan.
  const ServePlan& plan = *plan_;
  std::map<std::int64_t, std::vector<const ServedRequest*>> batches;
  for (const ServedRequest& r : plan.requests) {
    if (r.status != StatusCode::kOk) {
      // Shed / rejected / expired / faulted: one async queue span
      // covering arrival to disposition, tagged with the status.
      obs::Span dropped;
      dropped.track = "serve/queue";
      dropped.name = StrFormat("req %lld", static_cast<long long>(r.id));
      dropped.category = "serve";
      dropped.start = r.arrival_cycle;
      dropped.end = std::max(r.finish_cycle, r.arrival_cycle);
      dropped.async = true;
      dropped.id = r.id;
      dropped.args.emplace_back("status", StatusCodeName(r.status));
      tracer.Record(std::move(dropped));
      continue;
    }
    const std::int64_t service_start = r.finish_cycle - r.service_cycles;
    const std::string replica_track =
        StrFormat("serve/replica %d", r.replica);

    // Queue residency overlaps across requests: async span, one row
    // per request id in Perfetto.
    obs::Span queued;
    queued.track = "serve/queue";
    queued.name = StrFormat("req %lld", static_cast<long long>(r.id));
    queued.category = "serve";
    queued.start = r.arrival_cycle;
    queued.end = service_start;
    queued.async = true;
    queued.id = r.id;
    queued.args.emplace_back(
        "batch", std::to_string(r.batch_id));
    queued.args.emplace_back("replica", std::to_string(r.replica));
    tracer.Record(std::move(queued));

    obs::Span service;
    service.track = replica_track;
    service.name = StrFormat("req %lld", static_cast<long long>(r.id));
    service.category = "serve";
    service.start = service_start;
    service.end = r.finish_cycle;
    service.args.emplace_back("batch", std::to_string(r.batch_id));
    service.args.emplace_back("dram_bytes",
                              std::to_string(r.dram_bytes));
    tracer.Record(std::move(service));

    batches[r.batch_id].push_back(&r);
  }
  for (const auto& [batch_id, members] : batches) {
    obs::Span span;
    span.track = StrFormat("serve/replica %d", members.front()->replica);
    span.name = StrFormat("batch %lld", static_cast<long long>(batch_id));
    span.category = "serve";
    span.start = members.front()->start_cycle;
    span.end = 0;
    for (const ServedRequest* r : members)
      span.end = std::max(span.end, r->finish_cycle);
    span.args.emplace_back("size", std::to_string(members.size()));
    tracer.Record(std::move(span));
  }

  // Fault injections and recovery windows, per replica in index order
  // (each replica's log is in its own timeline order).
  for (int r = 0; r < options_.replicas; ++r) {
    for (const fault::FaultRecord& record :
         plan.replicas[static_cast<std::size_t>(r)].fault_records) {
      obs::Span span;
      span.track = StrFormat("serve/replica %d", r);
      span.category = "fault";
      if (record.recovery) {
        span.name = record.kind == fault::FaultKind::kBitFlip ? "scrub"
                    : record.kind == fault::FaultKind::kCrash
                        ? "readmit"
                        : "retry";
      } else {
        span.name = StrFormat("fault:%s",
                              fault::FaultKindName(record.kind));
      }
      span.start = record.start_cycle;
      span.end = record.end_cycle;
      span.args.emplace_back("invocation",
                             std::to_string(record.invocation));
      span.args.emplace_back("request",
                             std::to_string(record.request_id));
      span.args.emplace_back("detail", std::to_string(record.detail));
      tracer.Record(std::move(span));
    }
  }

  // The cluster track: resilience episodes (crashes, hangs, slow
  // windows, route failures, breaker holds, hedges) in dispatch order,
  // then the plan's health transition log.
  for (const ClusterEpisode& episode : plan.cluster_log) {
    obs::Span span;
    span.track = "cluster";
    span.category = "cluster";
    span.name = episode.name;
    span.start = episode.start;
    span.end = episode.end;
    span.args.emplace_back("replica",
                           std::to_string(episode.replica));
    for (const auto& arg : episode.args) span.args.push_back(arg);
    tracer.Record(std::move(span));
  }
  for (const cluster::HealthTransition& t : plan.health) {
    obs::Span span;
    span.track = "cluster";
    span.category = "health";
    span.name = StrFormat("replica %d: %s", t.replica,
                          cluster::ReplicaHealthName(t.to));
    span.start = t.cycle;
    span.end = t.cycle;
    span.args.emplace_back("from",
                           cluster::ReplicaHealthName(t.from));
    span.args.emplace_back("to", cluster::ReplicaHealthName(t.to));
    span.args.emplace_back("cause", t.cause);
    tracer.Record(std::move(span));
  }
}

void InferenceServer::PublishMetrics(obs::MetricsRegistry& m) const {
  // A copy of the plan's summary.  Counters and histograms add to what
  // the registry already holds; one no request fed (the request count of
  // an empty drain, the kOk traffic and distributions when nothing
  // completed) is left out.  The status, fault and cluster counters are
  // always published, zeros included, so the metric set stays stable.
  const ServerStats& s = plan_->stats;
  if (s.requests > 0) m.AddCounter("serve.requests", s.requests);
  if (s.completed > 0) m.AddCounter("serve.dram_bytes", s.total_dram_bytes);
  m.MergeHistogram("serve.latency_cycles", s.latency_cycles);
  m.MergeHistogram("serve.queue_wait_cycles", s.queue_wait_cycles);
  m.MergeHistogram("serve.service_cycles", s.service_cycles);
  m.MergeHistogram("serve.batch_size", s.batch_size);
  m.AddCounter("serve.completed", s.completed);
  m.AddCounter("serve.shed", s.shed);
  m.AddCounter("serve.rejected", s.rejected);
  m.AddCounter("serve.deadline_exceeded", s.deadline_exceeded);
  m.AddCounter("serve.faulted", s.faulted);
  m.AddCounter("serve.retries", s.retries);
  m.AddCounter("serve.batches", s.batch_size.count);
  m.SetGauge("serve.queue_depth_peak",
             static_cast<double>(s.queue_depth_peak));
  m.SetGauge("serve.makespan_cycles", static_cast<double>(s.makespan_cycles));
  m.SetGauge("serve.replicas", static_cast<double>(options_.replicas));
  for (int r = 0; r < s.replicas; ++r) {
    const auto i = static_cast<std::size_t>(r);
    m.SetGauge(StrFormat("serve.replica%d.busy_cycles", r),
               static_cast<double>(s.replica_busy_cycles[i]));
    m.SetGauge(StrFormat("serve.replica%d.utilization", r),
               s.WorkerUtilization(r));
    m.SetGauge(StrFormat("serve.replica%d.requests", r),
               static_cast<double>(s.replica_requests[i]));
    m.SetGauge(StrFormat("serve.replica%d.batches", r),
               static_cast<double>(s.replica_dispatches[i]));
  }

  m.AddCounter("fault.injected.bit_flip", s.bit_flips);
  m.AddCounter("fault.injected.transient", s.transients);
  m.AddCounter("fault.injected.stall", s.stalls);
  m.AddCounter("fault.scrubs", s.scrubs);
  m.AddCounter("fault.recovery_cycles", s.recovery_cycles);

  m.AddCounter("cluster.health.crashes", s.crashes);
  m.AddCounter("cluster.health.hangs", s.hangs);
  m.AddCounter("cluster.health.slow_replicas", s.slow_faults);
  m.AddCounter("cluster.health.route_failures", s.route_failures);
  m.AddCounter("cluster.health.redispatched_requests", s.redispatched);
  m.AddCounter("cluster.health.readmissions", s.readmissions);
  m.AddCounter("cluster.health.transitions", s.health_transitions);
  m.AddCounter("cluster.health.breaker_opens", s.breaker_opens);
  m.AddCounter("cluster.health.hedges", s.hedges);
  m.AddCounter("cluster.health.hedge_wins", s.hedge_wins);
}

void InferenceServer::PublishTimeSeries(obs::TimeSeriesRecorder& ts) const {
  // Sampled purely from the plan's load events and busy intervals, so
  // two runs of the same workload export byte-identical series.
  const ServePlan& plan = *plan_;
  const LoadEvents& load = plan.load;
  std::int64_t interval = 1;
  while (CeilDiv(load.horizon, interval) + 1 > 64) interval <<= 1;
  ts.SetSampleInterval(interval);

  const std::int64_t last = CeilDiv(load.horizon, interval) * interval;
  std::size_t di = 0, ii = 0, si = 0;
  std::int64_t depth = 0, in_flight = 0;
  for (std::int64_t t = 0;; t += interval) {
    while (di < load.depth.size() && load.depth[di].first <= t)
      depth += load.depth[di++].second;
    while (ii < load.in_flight.size() && load.in_flight[ii].first <= t)
      in_flight += load.in_flight[ii++].second;
    while (si < load.sheds.size() && load.sheds[si] <= t) ++si;
    ts.Append("load.queue_depth", t, static_cast<double>(depth));
    ts.Append("load.in_flight", t, static_cast<double>(in_flight));
    ts.Append("load.sheds", t, static_cast<double>(si));
    for (int w = 0; w < options_.replicas; ++w)
      ts.Append(StrFormat("load.replica%d.busy", w), t,
                t == 0 ? 0.0
                       : static_cast<double>(BusyInWindow(
                             plan.replicas[static_cast<std::size_t>(w)]
                                 .busy_intervals,
                             t - interval, t)) /
                             static_cast<double>(interval));
    // Health column per replica: the health log's replayed state at the
    // sample boundary (healthy=0, suspect=1, down=2, recovering=3).
    for (int w = 0; w < options_.replicas; ++w)
      ts.Append(StrFormat("load.replica%d.health", w), t,
                static_cast<double>(cluster::ReplicaHealthCode(
                    cluster::HealthAt(plan.health, w, t))));
    if (t >= last) break;
  }
}

ServerStats InferenceServer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DB_CHECK_MSG(plan_.has_value(), "Stats() requires a drained server");
  return plan_->stats;
}

}  // namespace db::serve
