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
    plan_.emplace(std::move(plan));
    if (options_.sim_metrics != nullptr) {
      const SystemContext& context = *replicas_.front().context;
      for (const ReplicaPlan& replica : plan_->replicas)
        for (const ReplicaOp& op : replica.ops)
          if (op.kind == ReplicaOp::Kind::kRun)
            PublishPerfMetrics(context.perf(op.warm), *options_.sim_metrics);
    }
    PublishObservability();
    if (options_.timeseries != nullptr) PublishTimeSeries();
    state_.store(ServerState::kStopped);
  }
  return plan_->requests;
}

void InferenceServer::PublishObservability() const {
  // Span emission order — and so the exported trace bytes — is a pure
  // function of the plan.
  const ServePlan& plan = *plan_;
  const int replicas = options_.replicas;
  if (options_.tracer != nullptr) {
    obs::Tracer& tracer = *options_.tracer;
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
      const std::string worker_track =
          StrFormat("serve/worker %d", r.worker);

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
      queued.args.emplace_back("worker", std::to_string(r.worker));
      tracer.Record(std::move(queued));

      obs::Span service;
      service.track = worker_track;
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
      span.track = StrFormat("serve/worker %d", members.front()->worker);
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
    for (int w = 0; w < replicas; ++w) {
      for (const fault::FaultRecord& record :
           plan.replicas[static_cast<std::size_t>(w)].fault_records) {
        obs::Span span;
        span.track = StrFormat("serve/worker %d", w);
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
    // windows, route failures, hedges) in dispatch order, then the health
    // monitor's transition log.
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
    for (const cluster::HealthTransition& t :
         plan.monitor.transitions()) {
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

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    std::int64_t makespan = 0;
    std::map<std::int64_t, std::int64_t> batch_sizes;
    // Queue depth over simulated time: +1 at arrival, -1 when the
    // request leaves the queue — at service start when served, at its
    // disposition cycle when shed or expired (departures at a cycle
    // clear before same-cycle arrivals).  Rejected requests never
    // entered the queue.
    std::vector<std::pair<std::int64_t, int>> depth_events;
    std::int64_t shed = 0, rejected = 0, expired = 0, faulted = 0;
    std::int64_t completed = 0, retries = 0, recovery_cycles = 0;
    for (const ServedRequest& r : plan.requests) {
      m.AddCounter("serve.requests");
      retries += r.retries;
      recovery_cycles += r.recovery_cycles;
      switch (r.status) {
        case StatusCode::kShed:
          ++shed;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kRejected:
          ++rejected;
          continue;
        case StatusCode::kDeadlineExceeded:
          ++expired;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kFaulted:
          ++faulted;
          depth_events.emplace_back(r.arrival_cycle, +1);
          depth_events.emplace_back(r.finish_cycle, -1);
          continue;
        case StatusCode::kOk:
          ++completed;
          break;
      }
      const std::int64_t service_start = r.finish_cycle - r.service_cycles;
      m.AddCounter("serve.dram_bytes", r.dram_bytes);
      // The end-to-end latency histogram: the same HistogramStats type
      // (and the same samples) ComputeServerStats aggregates, so the
      // registry's quantiles and ServerStats' percentiles agree exactly.
      m.Observe("serve.latency_cycles",
                static_cast<double>(r.finish_cycle - r.arrival_cycle));
      m.Observe("serve.queue_wait_cycles",
                static_cast<double>(service_start - r.arrival_cycle));
      m.Observe("serve.service_cycles",
                static_cast<double>(r.service_cycles));
      makespan = std::max(makespan, r.finish_cycle);
      ++batch_sizes[r.batch_id];
      depth_events.emplace_back(r.arrival_cycle, +1);
      depth_events.emplace_back(service_start, -1);
    }
    m.AddCounter("serve.completed", completed);
    m.AddCounter("serve.shed", shed);
    m.AddCounter("serve.rejected", rejected);
    m.AddCounter("serve.deadline_exceeded", expired);
    m.AddCounter("serve.faulted", faulted);
    m.AddCounter("serve.retries", retries);
    m.AddCounter("serve.batches",
                 static_cast<std::int64_t>(batch_sizes.size()));
    for (const auto& [batch_id, size] : batch_sizes)
      m.Observe("serve.batch_size", static_cast<double>(size));
    std::sort(depth_events.begin(), depth_events.end());
    std::int64_t depth = 0, peak = 0;
    for (const auto& [cycle, delta] : depth_events)
      peak = std::max(peak, depth += delta);
    m.SetGauge("serve.queue_depth_peak", static_cast<double>(peak));
    m.SetGauge("serve.makespan_cycles", static_cast<double>(makespan));
    m.SetGauge("serve.replicas", static_cast<double>(replicas));
    m.SetGauge("serve.router",
               static_cast<double>(static_cast<int>(options_.router)));
    for (int w = 0; w < replicas; ++w) {
      const ReplicaPlan& rep = plan.replicas[static_cast<std::size_t>(w)];
      const std::int64_t busy = rep.busy_cycles;
      // Metric names keep the historical "worker" spelling so dashboards
      // survive the replica refactor.
      m.SetGauge(StrFormat("serve.worker%d.busy_cycles", w),
                 static_cast<double>(busy));
      m.SetGauge(StrFormat("serve.worker%d.utilization", w),
                 makespan > 0 ? static_cast<double>(busy) /
                                    static_cast<double>(makespan)
                              : 0.0);
      m.SetGauge(StrFormat("serve.worker%d.requests", w),
                 static_cast<double>(rep.requests));
      m.SetGauge(StrFormat("serve.worker%d.batches", w),
                 static_cast<double>(rep.batches));
    }

    // fault.*: injections by kind, recovery actions and their cost.
    std::int64_t flips = 0, transients = 0, stalls = 0, scrubs = 0;
    for (const ReplicaPlan& rep : plan.replicas) {
      scrubs += rep.scrubs;
      for (const fault::FaultRecord& record : rep.fault_records) {
        if (record.recovery) continue;
        switch (record.kind) {
          case fault::FaultKind::kBitFlip: ++flips; break;
          case fault::FaultKind::kTransient: ++transients; break;
          case fault::FaultKind::kStall: ++stalls; break;
          default:
            // Cluster faults fire at dispatch; a replica's record only
            // holds them as recovery windows (skipped above).
            DB_CHECK_MSG(false, "cluster fault in a replica fault record");
        }
      }
    }
    m.AddCounter("fault.injected.bit_flip", flips);
    m.AddCounter("fault.injected.transient", transients);
    m.AddCounter("fault.injected.stall", stalls);
    m.AddCounter("fault.scrubs", scrubs);
    m.AddCounter("fault.recovery_cycles", recovery_cycles);

    // cluster.health.*: fleet-resilience accounting — always published
    // (zeros under a fault-free run) so dashboards and the determinism
    // tests see a stable metric set.
    m.AddCounter("cluster.health.crashes", plan.crashes);
    m.AddCounter("cluster.health.hangs", plan.hangs);
    m.AddCounter("cluster.health.slow_replicas", plan.slow_faults);
    m.AddCounter("cluster.health.route_failures", plan.route_failures);
    m.AddCounter("cluster.health.redispatched_requests",
                 plan.redispatched);
    m.AddCounter("cluster.health.readmissions", plan.readmissions);
    m.AddCounter("cluster.health.transitions",
                 static_cast<std::int64_t>(
                     plan.monitor.transitions().size()));
    m.AddCounter("cluster.health.breaker_opens", plan.breaker.opens());
    m.AddCounter("cluster.health.hedges", plan.hedges);
    m.AddCounter("cluster.health.hedge_wins", plan.hedge_wins);
  }
}

void InferenceServer::PublishTimeSeries() const {
  // Sampled purely from the plan's records and busy intervals, so two
  // runs of the same workload export byte-identical series.
  const ServePlan& plan = *plan_;
  const int replicas = options_.replicas;
  obs::TimeSeriesRecorder& ts = *options_.timeseries;
  std::int64_t makespan = 0;
  for (const ServedRequest& r : plan.requests)
    makespan =
        std::max(makespan, std::max(r.finish_cycle, r.arrival_cycle));
  std::int64_t interval = options_.timeseries_interval_cycles;
  if (interval <= 0) {
    interval = 1;
    while (CeilDiv(makespan, interval) + 1 > 64) interval <<= 1;
  }
  ts.SetSampleInterval(interval);

  // State deltas on the simulated timeline.  Departures sort before
  // same-cycle arrivals (-1 < +1), matching the queue-depth convention
  // of the peak gauge.
  std::vector<std::pair<std::int64_t, int>> depth_events;
  std::vector<std::pair<std::int64_t, int>> inflight_events;
  std::vector<std::int64_t> shed_cycles;  // disposition cycles, non-kOk
  for (const ServedRequest& r : plan.requests) {
    switch (r.status) {
      case StatusCode::kRejected:
        shed_cycles.push_back(r.finish_cycle);  // never entered the queue
        continue;
      case StatusCode::kShed:
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kFaulted:
        depth_events.emplace_back(r.arrival_cycle, +1);
        depth_events.emplace_back(r.finish_cycle, -1);
        shed_cycles.push_back(r.finish_cycle);
        continue;
      case StatusCode::kOk: break;
    }
    const std::int64_t service_start = r.finish_cycle - r.service_cycles;
    depth_events.emplace_back(r.arrival_cycle, +1);
    depth_events.emplace_back(service_start, -1);
    inflight_events.emplace_back(service_start, +1);
    inflight_events.emplace_back(r.finish_cycle, -1);
  }
  std::sort(depth_events.begin(), depth_events.end());
  std::sort(inflight_events.begin(), inflight_events.end());
  std::sort(shed_cycles.begin(), shed_cycles.end());

  const std::int64_t last = CeilDiv(makespan, interval) * interval;
  std::size_t di = 0, ii = 0, si = 0;
  std::int64_t depth = 0, in_flight = 0;
  for (std::int64_t t = 0;; t += interval) {
    while (di < depth_events.size() && depth_events[di].first <= t)
      depth += depth_events[di++].second;
    while (ii < inflight_events.size() && inflight_events[ii].first <= t)
      in_flight += inflight_events[ii++].second;
    while (si < shed_cycles.size() && shed_cycles[si] <= t) ++si;
    ts.Append("load.queue_depth", t, static_cast<double>(depth));
    ts.Append("load.in_flight", t, static_cast<double>(in_flight));
    ts.Append("load.sheds", t, static_cast<double>(si));
    for (int w = 0; w < replicas; ++w)
      ts.Append(StrFormat("load.replica%d.busy", w), t,
                t == 0 ? 0.0
                       : static_cast<double>(BusyInWindow(
                             plan.replicas[static_cast<std::size_t>(w)]
                                 .busy_intervals,
                             t - interval, t)) /
                             static_cast<double>(interval));
    // Health column per replica: the monitor's replayed state at the
    // sample boundary (healthy=0, suspect=1, down=2, recovering=3).
    for (int w = 0; w < replicas; ++w)
      ts.Append(StrFormat("load.replica%d.health", w), t,
                static_cast<double>(cluster::ReplicaHealthCode(
                    plan.monitor.StateAt(w, t))));
    if (t >= last) break;
  }
}

ServerStats InferenceServer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DB_CHECK_MSG(plan_.has_value(), "Stats() requires a drained server");
  const ServePlan& plan = *plan_;
  std::vector<std::int64_t> busy;
  for (const ReplicaPlan& replica : plan.replicas)
    busy.push_back(replica.busy_cycles);
  ServerStats stats =
      ComputeServerStats(plan.requests, plan.batches,
                         design_.config.frequency_mhz, std::move(busy));
  for (const ReplicaPlan& replica : plan.replicas)
    for (const fault::FaultRecord& record : replica.fault_records)
      if (!record.recovery) ++stats.faults_injected;
  // Cluster events fire at dispatch, not in the replicas' records.
  stats.faults_injected += plan.crashes + plan.hangs + plan.slow_faults +
                           plan.route_failures;
  stats.crashes = plan.crashes;
  stats.hangs = plan.hangs;
  stats.slow_faults = plan.slow_faults;
  stats.route_failures = plan.route_failures;
  stats.redispatched = plan.redispatched;
  stats.readmissions = plan.readmissions;
  stats.breaker_opens = plan.breaker.opens();
  stats.hedges = plan.hedges;
  stats.hedge_wins = plan.hedge_wins;
  stats.health_transitions =
      static_cast<std::int64_t>(plan.monitor.transitions().size());
  return stats;
}

}  // namespace db::serve
