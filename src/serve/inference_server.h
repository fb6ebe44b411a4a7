// Concurrent batched inference server on top of the system simulation —
// the first "serves traffic" layer of the stack (ROADMAP north star),
// hardened against the fault model of src/fault.
//
// Architecture (one request's journey):
//
//   Submit(input, arrival_cycle[, deadline_cycle])
//     │  admission control in *simulated time* (kBlock / kReject /
//     │  kShedOldest against queue_capacity), then the bounded
//     │  RequestQueue (wall-clock back-pressure: Submit blocks when full)
//     ▼
//   dispatcher thread: Batcher groups requests (max batch + linger,
//     both in simulated cycles), then a cluster::ShardRouter picks the
//     replica for each closed batch (round-robin, least-loaded in
//     simulated time, or hash-affinity)
//     │  per-replica work lanes (cluster::AcceleratorPool)
//     ▼
//   replica lanes: the pool holds N replicas of the generated design,
//     each with a private DRAM MemoryImage (copied from the image built
//     once at start-up) and its own SystemContext reading its weights
//     in place from those bytes; weights stay resident across images after the replica's
//     first (cold) invocation.  Before each request service the lane
//     fires any injected faults bound to that invocation on that
//     replica, charges stalls, expires requests past their deadline,
//     verifies the weight-region checksum (scrub-and-reload from the
//     provisioned image on mismatch) and retries transient failures with
//     bounded exponential backoff — all charged in simulated cycles.
//
// Determinism: batch composition, replica assignment, admission
// decisions, fault firing points and every recovery charge are computed
// purely from the submission order, the arrival cycles, the design's
// (deterministic) cold/steady invocation cycle counts and the seeded
// fault plan — never from thread timing.  Outputs of kOk requests are
// bit-identical to running the same inputs through sequential
// HostRuntime::InferBatch — and identical for any replica count, since
// every replica starts from the same provisioned bytes — and every
// reported cycle number is reproducible run to run; the lane threads
// merely overlap the wall-clock cost of producing them.
//
// Lifecycle: kStarting (constructor) → kServing (threads running) →
// kDraining (Drain called, intake closed) → kStopped (workers joined,
// observability published).  Submit outside kServing throws
// db::ShutdownError.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/accelerator_pool.h"
#include "cluster/health_monitor.h"
#include "cluster/shard_router.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/batcher.h"
#include "serve/request_queue.h"
#include "serve/server_stats.h"
#include "sim/host_runtime.h"
#include "sim/system_sim.h"

namespace db::serve {

enum class ServerState { kStarting, kServing, kDraining, kStopped };

/// Saturating exponential-backoff charge: base << attempt, computed
/// without shifting past the int64 width and clamped to `cap`.  Pure;
/// exposed so tests can pin the arithmetic.
std::int64_t RetryBackoffCycles(std::int64_t base, int attempt,
                                std::int64_t cap);

constexpr const char* ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kStarting: return "starting";
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "unknown";
}

struct ServeOptions {
  /// Number of simulated accelerator replicas in the pool — the
  /// historical name from when each one was a "worker" thread.  Kept as
  /// the default knob for backward compatibility; `replicas` overrides
  /// it when positive.
  int workers = 2;
  /// Pool size by its cluster-era name; 0 = use `workers`.
  int replicas = 0;
  /// How closed batches are spread across the replicas.  All three
  /// policies are deterministic; kLeastLoaded reproduces the historical
  /// earliest-free-datapath placement.
  cluster::RouterPolicy router = cluster::RouterPolicy::kLeastLoaded;
  /// Content hash pinning this server's model under kHashAffinity
  /// (typically the DesignKey digest).  A single-model pool then keeps
  /// one replica hot — the intended shard-per-model behaviour.
  std::uint64_t affinity_hash = 0;
  std::int64_t max_batch_size = 4;
  std::int64_t linger_cycles = 0;
  std::size_t queue_capacity = 64;
  /// What happens when the queue is full.  The server evaluates the
  /// policy against the *simulated-time* queue depth (requests whose
  /// batch has not yet closed), so which requests are shed or rejected
  /// is a pure function of the arrival stream, not of thread timing;
  /// the wall-clock RequestQueue keeps kBlock semantics as the memory
  /// back-pressure layer underneath.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Default relative deadline: a request submitted without an explicit
  /// deadline must start service within this many cycles of arrival.
  /// 0 = no default deadline.
  std::int64_t deadline_cycles = 0;
  /// Seeded deterministic fault campaign (empty = fault-free serving).
  fault::FaultPlan faults;
  /// Transient-failure retry policy: at most `max_retries` attempts are
  /// retried per request, each charging the invocation cost plus
  /// `retry_backoff_cycles << attempt` simulated cycles; exhaustion
  /// completes the request as StatusCode::kFaulted.
  int max_retries = 3;
  std::int64_t retry_backoff_cycles = 64;
  /// Saturation cap for the exponential backoff: the charge for attempt
  /// k is min(retry_backoff_cycles << k, max_retry_backoff_cycles),
  /// computed shift-safely (RetryBackoffCycles), so huge deadlines or
  /// retry counts can never overflow int64 cycle math.
  std::int64_t max_retry_backoff_cycles = std::int64_t{1} << 32;
  /// Opt-in request hedging: when a batch's planned completion exceeds
  /// its ready cycle by more than this many cycles, the dispatcher
  /// plans a duplicate on the best other healthy replica starting at
  /// ready + hedge_after_cycles and keeps whichever copy finishes
  /// first; the loser is cancelled (its lane charges the occupied
  /// window but never runs the datapath, so outputs stay bit-identical
  /// to the unhedged run).  0 = disabled.
  std::int64_t hedge_after_cycles = 0;
  /// Per-replica circuit breaker (closed/open/half-open with a
  /// cycle-based cooldown); disabled unless `breaker.enabled`.
  cluster::BreakerOptions breaker;
  /// Replica health-monitor knobs (heartbeat grid, miss/failure
  /// thresholds); the readmit scrub charge is overwritten with the
  /// server's weight-scrub cost.
  cluster::HealthOptions health;
  std::string device_name = "zynq-7045";
  /// Base performance-model options; the server manages
  /// `weights_resident` itself (cold first image per worker, steady
  /// after), matching HostRuntime::InferBatch.
  PerfOptions perf;
  /// Optional observability sinks.  Request lifecycle spans — queue
  /// residency on "serve/queue" (async) plus batch and per-request
  /// service spans on "serve/worker N" — fault/recovery spans, and the
  /// "serve.*" / "fault.*" metrics are published once, inside the first
  /// Drain() call, derived from the deterministic per-request and
  /// per-worker records after every worker joined; the worker threads
  /// themselves never touch the sinks, so the emitted trace is
  /// byte-identical across runs.  `perf.metrics` additionally receives
  /// the workers' per-invocation "sim.*" counters (commutative, still
  /// deterministic).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional deterministic load time-series sink, populated once at
  /// Drain() from the final records and replica busy intervals.  Series
  /// (all sampled on the same simulated-cycle grid): "load.queue_depth"
  /// (requests whose service has not started), "load.in_flight"
  /// (requests inside a datapath window), "load.sheds" (cumulative
  /// shed + rejected + expired + faulted dispositions) and
  /// "load.replica<r>.busy" (busy fraction of the *preceding* sample
  /// window, in [0, 1]).
  obs::TimeSeriesRecorder* timeseries = nullptr;
  /// Sample interval in simulated cycles; 0 picks the smallest power of
  /// two giving at most 64 sample boundaries over the makespan, so the
  /// export stays compact for any workload length.
  std::int64_t timeseries_interval_cycles = 0;
};

class InferenceServer {
 public:
  /// Serialises the weights into a DRAM image once; the accelerator
  /// pool stamps out one private copy (and one SystemContext reading
  /// it) per replica.  Lane threads start immediately.
  InferenceServer(const Network& net, const AcceleratorDesign& design,
                  const WeightStore& weights, ServeOptions options = {});

  /// Joins all threads (abandoning queued work if Drain was not called).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue one request; blocks while the bounded queue is full (under
  /// kBlock).  Arrival cycles must be non-decreasing across calls.
  /// `deadline_cycle` is the absolute cycle by which service must have
  /// started (0: use the options' default relative deadline, or none).
  /// Returns the request id (dense, in submission order); a rejected or
  /// shed request still gets an id and a record with its status.
  /// Throws db::ShutdownError unless the server is in kServing.
  std::int64_t Submit(Tensor input, std::int64_t arrival_cycle,
                      std::int64_t deadline_cycle = 0);

  /// End intake, wait until every submitted request has completed, and
  /// return the records ordered by request id.  Idempotent.
  const std::vector<ServedRequest>& Drain();

  /// Aggregate metrics; valid after Drain().
  ServerStats Stats() const;

  /// Lifecycle observer (see ServerState).
  ServerState state() const { return state_.load(); }

  const ServeOptions& options() const { return options_; }

  /// Resolved pool size (options().replicas, falling back to workers).
  int replicas() const { return pool_.size(); }

  /// Cycle cost the scheduler charges per invocation (exposed so tests
  /// and benches can reason about the schedule analytically).
  std::int64_t cold_cycles() const { return cold_cycles_; }
  std::int64_t steady_cycles() const { return steady_cycles_; }
  /// Cycles one weight-region scrub-and-reload charges.
  std::int64_t scrub_cycles() const { return scrub_cycles_; }

  /// Cluster-resilience accounting (valid after Drain()).
  std::int64_t crashes() const { return crashes_; }
  std::int64_t hedges() const { return hedge_count_; }
  std::int64_t hedge_wins() const { return hedge_wins_; }
  std::int64_t redispatched_requests() const { return redispatched_; }
  const cluster::ReplicaHealthMonitor& health_monitor() const {
    return monitor_;
  }
  const cluster::CircuitBreaker& circuit_breaker() const {
    return breaker_;
  }

 private:
  /// A batch bound to a replica with its service window decided.
  struct ScheduledBatch {
    Batch batch;
    int replica = -1;
    std::int64_t start_cycle = 0;
    /// Per-request slow-replica surcharge (cycles added to the service
    /// charge), aligned with batch.requests; empty = all zero.
    std::vector<std::int64_t> penalties;
  };

  /// The dispatcher's pure plan for a batch on a replica: start/finish
  /// from the simulated free cycle, per-request slow surcharges from
  /// the replica's live slow-fault state.  Side-effect free so hedging
  /// can evaluate alternates before committing.
  struct BatchPlan {
    std::int64_t start = 0;
    std::int64_t finish = 0;
    std::vector<std::int64_t> penalties;
  };

  /// Outcome of firing a replica's pending cluster events for one
  /// dispatch window.
  struct CrashSplit {
    bool crashed = false;
    std::int64_t event_invocation = 0;  // clamped into the window
    std::int64_t down_cycles = 0;
  };

  void DispatcherLoop();
  /// Serve one scheduled batch on replica `index` (runs on that
  /// replica's lane thread; touches only that replica's state plus the
  /// lock-guarded results).
  void ServeBatch(int index, ScheduledBatch& scheduled);
  void DispatchBatch(Batch batch);
  /// Place `batch` on the cluster at `ready`: health-masked routing,
  /// cluster-fault firing (route failures re-route, crashes split the
  /// batch and re-dispatch the remainder), optional hedging, then
  /// commit to a lane.  Dispatcher thread only.
  void ScheduleOnCluster(Batch batch, std::int64_t ready);
  BatchPlan PlanBatch(int r, const Batch& batch, std::int64_t ready) const;
  /// Fire replica r's pending cluster events for a dispatch covering
  /// invocations [scheduled, scheduled + size).  Returns false when a
  /// transient route failure consumed this attempt (caller re-routes);
  /// fills `crash` when the replica crashes inside the window.
  bool FireClusterEvents(int r, std::int64_t size, std::int64_t ready,
                         CrashSplit* crash);
  /// Advance the committed schedule for a batch executing on r per
  /// `plan` and post it to r's lane.
  void CommitBatch(int r, Batch batch, BatchPlan plan);
  /// Lane task: scrub-and-readmit a crashed replica at `readmit_cycle`
  /// (verify + reload weights from the provisioned image, charge the
  /// scrub, drop warm state — a reboot loses residency).
  void PostReadmitScrub(int r, std::int64_t readmit_cycle);
  /// Lane task: charge the cancelled side of a hedge the [start,
  /// cancel) occupancy without running the datapath.
  void PostHedgeCancel(int r, std::int64_t start, std::int64_t cancel);
  /// Append a dispatcher-side cluster episode for the "cluster" track.
  void LogClusterEvent(const char* name, int replica, std::int64_t start,
                       std::int64_t end,
                       std::vector<std::pair<std::string, std::string>>
                           args = {});
  /// Mark request `id` completed with `status` (results_mu_ held by the
  /// caller is NOT assumed; takes the lock itself).
  void CompleteWithoutService(std::int64_t id, StatusCode status,
                              std::int64_t finish_cycle);
  /// Emit spans + metrics from the completed records (results_mu_ held,
  /// lanes joined); runs once, from the first Drain().
  void PublishObservability();
  /// Sample the load time-series from the final records and replica
  /// busy intervals (same preconditions as PublishObservability).
  void PublishTimeSeries();

  const Network& net_;
  const AcceleratorDesign& design_;
  const DeviceInfo& device_;
  ServeOptions options_;
  int replica_count_ = 1;  // resolved from options (replicas or workers)

  MemoryImage provisioned_;  // built once; every replica copies its bytes
  fault::FaultInjector injector_;
  std::int64_t cold_cycles_ = 0;
  std::int64_t steady_cycles_ = 0;
  std::uint64_t weight_checksum_ = 0;  // of the provisioned image
  std::int64_t scrub_cycles_ = 0;

  RequestQueue queue_;
  cluster::AcceleratorPool pool_;
  std::thread dispatcher_;

  // Deterministic scheduler state (dispatcher thread only).
  Batcher batcher_;
  cluster::ShardRouter router_;
  std::vector<std::int64_t> replica_free_cycle_;
  std::vector<bool> replica_scheduled_warm_;
  std::int64_t batches_dispatched_ = 0;

  // Cluster-resilience state (dispatcher thread only while serving;
  // readable after Drain).  `scheduled_invocations_[r]` counts services
  // the dispatcher has committed to replica r — the coordinate space of
  // cluster fault events (distinct from the lane's rep.invocations,
  // which counts attempted services including tombstone skips).
  cluster::ReplicaHealthMonitor monitor_;
  cluster::CircuitBreaker breaker_;
  std::vector<std::int64_t> scheduled_invocations_;
  std::vector<std::size_t> cluster_cursor_;
  struct SlowState {
    std::int64_t factor = 1;
    std::int64_t services = 0;  // invocations the factor still covers
  };
  std::vector<SlowState> slow_;
  /// Dispatcher-side episode log for "cluster"-track spans.
  struct ClusterEpisode {
    std::string name;
    int replica = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::vector<std::pair<std::string, std::string>> args;
  };
  std::vector<ClusterEpisode> cluster_log_;
  std::int64_t crashes_ = 0;
  std::int64_t hangs_ = 0;
  std::int64_t slow_faults_ = 0;
  std::int64_t route_failures_ = 0;
  std::int64_t redispatched_ = 0;
  std::int64_t readmissions_ = 0;
  std::int64_t hedge_count_ = 0;
  std::int64_t hedge_wins_ = 0;
  std::int64_t redispatch_batches_ = 0;  // fresh ids for remainders

  // Submission state (caller threads, guarded by submit_mu_).
  std::mutex submit_mu_;
  std::int64_t next_request_id_ = 0;
  std::int64_t last_arrival_ = 0;
  // Simulated-time admission shadow: mirrors the dispatcher's batcher
  // over the admitted stream so Submit knows the simulated queue depth
  // (members of the still-open batch) without racing the dispatcher.
  std::int64_t shadow_open_count_ = 0;    // open-batch size incl. shed
  std::int64_t shadow_first_arrival_ = 0;
  std::deque<std::int64_t> shadow_live_;  // queued (non-shed) request ids

  std::atomic<ServerState> state_{ServerState::kStarting};

  // Completion tracking and results.
  mutable std::mutex results_mu_;
  std::vector<ServedRequest> results_;  // indexed by request id
  std::int64_t completed_ = 0;
  bool drained_ = false;
};

}  // namespace db::serve
