// Batched inference server on top of the system simulation — the
// "serves traffic" layer of the stack, hardened against the fault model
// of src/fault.
//
// Serving is a plan, then an execution.  As on the board (paper §4.1),
// the host decides the order of invocations and the accelerator only
// runs them:
//
//   Submit(input, arrival_cycle[, deadline_cycle])
//     appends the request; nothing runs yet.
//   Drain()
//     1. PlanServe — one single-threaded pass in simulated time over the
//        whole arrival stream.  It decides admission (kReject /
//        kShedOldest against queue_capacity), batching (Batcher: max
//        batch + linger), least-loaded routing (the earliest-free
//        replica, ties to the lowest index; a crashed or hung replica's
//        free cycle already carries its outage, one whose
//        CircuitBreaker opened carries the cooldown, so nothing is
//        masked; one server holds one model, as the board holds one
//        accelerator), the cluster faults (a
//        route failure re-routes, a hang or a slow replica delays, a
//        crash splits the batch and re-dispatches the rest), hedging,
//        and every replica's timeline: datapath faults fired by
//        invocation coordinate, stalls, deadline expiry, weight scrubs
//        predicted from the weight bits the plan has toggled, retries
//        with backoff, readmit scrubs and hedge-cancel occupancy.  After
//        the last batch, cluster::HealthLog derives the replicas' health
//        transitions from the plan's crash and hang windows.  The plan
//        holds every ServedRequest field except `output`, plus one op
//        list per replica.
//     2. ExecutePlan — one thread per replica replays that replica's op
//        list in order (FlipBit; a weight checksum that scrubs on
//        mismatch, and must mismatch exactly where the plan predicted a
//        scrub; SystemContext::RunBatch over each run of up to
//        max_batch_size consecutive requests with no flip or checksum
//        between them) and writes the outputs of its own requests.
//     3. SummarizePlan — one pass over the plan's records and fault
//        records fills its ServerStats and load events; Stats(), the
//        metrics and the load time-series are read from that summary,
//        and the spans from the plan.
//
// Determinism: cycle costs never depend on input values, so the plan —
// every batch, route, admission, fault, retry, hedge and crash split,
// and every reported cycle — is a pure function of the arrival stream,
// the design and the seeded fault plan.  Every replica starts from the
// same provisioned bytes, so outputs of kOk requests are bit-identical to
// sequential SystemContext::Run calls for any replica count; the
// executor threads only overlap the wall-clock cost of producing them.
//
// Lifecycle: kServing (after the constructor) → kDraining (inside the
// first Drain) → kStopped.  Submit outside kServing throws
// db::ShutdownError.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/health_monitor.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "serve/server_stats.h"
#include "sim/host_runtime.h"
#include "sim/system_sim.h"

namespace db::serve {

enum class ServerState { kServing, kDraining, kStopped };

constexpr const char* ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "unknown";
}

/// What happens to a request that arrives while `queue_capacity`
/// requests already wait in the open batch:
///   * kBlock      — nothing: it is admitted (the default).
///   * kReject     — it completes as StatusCode::kRejected at arrival.
///   * kShedOldest — the oldest waiting request completes as
///                   StatusCode::kShed and the new one is admitted.
enum class AdmissionPolicy { kBlock, kReject, kShedOldest };

/// Saturating exponential-backoff charge: base << attempt, computed
/// without shifting past the int64 width and clamped to `cap`.  Pure;
/// exposed so tests can pin the arithmetic.
std::int64_t RetryBackoffCycles(std::int64_t base, int attempt,
                                std::int64_t cap);

/// The planner's retry policy: at most kMaxRetries transient failures
/// are retried per request; attempt k is charged the invocation cost
/// plus RetryBackoffCycles(kRetryBackoffCycles, k,
/// kMaxRetryBackoffCycles), so cycle math can never overflow int64.
/// Exhaustion completes the request as StatusCode::kFaulted.
constexpr int kMaxRetries = 3;
constexpr std::int64_t kRetryBackoffCycles = 64;
constexpr std::int64_t kMaxRetryBackoffCycles = std::int64_t{1} << 32;

struct ServeOptions {
  /// Number of simulated accelerator replicas, each with its own DRAM
  /// image (a copy-on-write mapping of the provisioned one).
  int replicas = 2;
  std::int64_t max_batch_size = 4;
  std::int64_t linger_cycles = 0;
  /// Waiting requests (members of the still-open batch) at which
  /// `admission` acts.  Applies only to kReject and kShedOldest: under
  /// kBlock nothing waits in simulated time, so it has no effect.
  std::size_t queue_capacity = 64;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Default relative deadline: a request submitted without an explicit
  /// deadline must start service within this many cycles of arrival.
  /// 0 = no default deadline.
  std::int64_t deadline_cycles = 0;
  /// Seeded deterministic fault campaign (empty = fault-free serving).
  fault::FaultPlan faults;
  /// Opt-in request hedging: when a batch's planned completion exceeds
  /// its ready cycle by more than this many cycles, the planner places
  /// a duplicate, starting at ready + hedge_after_cycles, on the other
  /// replica that finishes it first — only if that copy finishes before
  /// the primary.  The primary is then cancelled:
  /// it occupies its replica until the copy completes but never runs
  /// the datapath, and its batch still counts against the replica's
  /// slow window.  A copy that would lose is never placed.  0 = disabled.
  std::int64_t hedge_after_cycles = 0;
  /// Per-replica circuit breaker (closed/open/half-open with a
  /// cycle-based cooldown), the one owner of dispatch failures (route
  /// failures, crashes); disabled unless `breaker.enabled`.  An open
  /// breaker holds its replica's free cycle until the cooldown ends, so
  /// routing and hedging pass it over exactly as long as any other
  /// replica frees first, and a sole replica waits the cooldown out.
  /// Without it a route failure only re-routes its batch.
  cluster::BreakerOptions breaker;
  std::string device_name = "zynq-7045";
  /// Optional observability sinks, all published once, inside the first
  /// Drain(), from the plan: request lifecycle spans — queue residency
  /// on "serve/queue" (async) plus batch and per-request service spans
  /// on "serve/replica N" — fault, recovery and cluster spans, and the
  /// "serve.*" / "fault.*" / "cluster.health.*" metrics.  `sim_metrics`
  /// receives the "sim.*" metrics of every served invocation
  /// (PublishPerfMetrics, once per cold and once per warm PerfResult).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::MetricsRegistry* sim_metrics = nullptr;
  /// Optional deterministic load time-series sink.  Series (all sampled
  /// on the same simulated-cycle grid): "load.queue_depth" (requests
  /// whose service has not started), "load.in_flight" (requests inside a
  /// datapath window), "load.sheds" (cumulative shed + rejected +
  /// expired + faulted dispositions), "load.replica<r>.busy" (busy
  /// fraction of the *preceding* sample window, in [0, 1]) and
  /// "load.replica<r>.health".  The sample interval is the smallest
  /// power of two giving at most 64 sample boundaries over the run, so
  /// the export stays compact for any workload length.
  obs::TimeSeriesRecorder* timeseries = nullptr;
};

/// One submitted request as the planner sees it.
struct RequestArrival {
  std::int64_t arrival_cycle = 0;
  /// Absolute cycle by which service must have started; 0 = the
  /// options' default relative deadline, or none.
  std::int64_t deadline_cycle = 0;
};

/// The simulated cost of one invocation.
struct InvocationCost {
  std::int64_t cycles = 0;
  std::int64_t dram_bytes = 0;
  double joules = 0.0;
};

/// What the planner knows about the design: the cost of a cold (first
/// on a replica, or after a readmission) and of a warm invocation, the
/// cycles of one weight scrub-and-reload, and where the weight regions
/// lie — a bit flipped there makes the next integrity check scrub.
struct PlanCosts {
  InvocationCost cold;
  InvocationCost steady;
  std::int64_t scrub_cycles = 1;
  std::vector<std::pair<std::int64_t, std::int64_t>> weight_regions;
};

/// The plan costs of `design`, read from a replica context's cached
/// cold and warm timing, with energy on `device_name`.
PlanCosts MakePlanCosts(const AcceleratorDesign& design,
                        const SystemContext& context,
                        const std::string& device_name);

/// One step of a replica's replay.
struct ReplicaOp {
  enum class Kind : std::uint8_t {
    kFlip,    // FlipBit(addr, bit) on the replica's image
    kVerify,  // checksum the weight regions; scrub them on mismatch
    kRun,     // run request `arg` through the replica's context
  };
  Kind kind = Kind::kRun;
  bool scrub = false;  // kVerify: the plan predicts a mismatch
  bool warm = false;   // kRun: weights resident from an earlier image
  int bit = 0;         // kFlip
  std::int64_t arg = 0;  // kFlip: image byte address; kRun: request id
};

/// Everything the plan decided for one replica.
struct ReplicaPlan {
  std::vector<ReplicaOp> ops;
  std::vector<fault::FaultRecord> fault_records;
  /// Simulated [start, end) windows the datapath was occupied — service
  /// runs plus charged recovery (retry attempts, stalls, scrubs, hedge
  /// occupancy) — in timeline order, so sorted and disjoint.
  std::vector<std::pair<std::int64_t, std::int64_t>> busy_intervals;
};

/// A resilience episode (crash, hang, slow window, route failure,
/// breaker hold, hedge) for the "cluster" trace track.
struct ClusterEpisode {
  std::string name;
  int replica = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Load changes on the simulated timeline, each list sorted by cycle.
/// A ±1 pair brackets each request's stay: in the queue from arrival
/// until service starts (or until its disposition when shed, expired or
/// faulted; a rejected request never enters it), and in flight over its
/// datapath window.  A departure sorts before a same-cycle arrival.
struct LoadEvents {
  std::vector<std::pair<std::int64_t, int>> depth;
  std::vector<std::pair<std::int64_t, int>> in_flight;
  /// Disposition cycles of every request that did not complete kOk.
  std::vector<std::int64_t> sheds;
  /// The last arrival or finish cycle of any request.
  std::int64_t horizon = 0;
};

/// What PlanServe decided: the records, each replica's replay and
/// timeline, and the accounting.
struct ServePlan {
  ServePlan(int replicas, const ServeOptions& options);

  /// Indexed by request id; every field but `output` is final.
  std::vector<ServedRequest> requests;
  std::vector<ReplicaPlan> replicas;
  /// The options' batch bound; ExecutePlan runs at most this many of a
  /// replica's consecutive requests as one batch-major pass.
  std::int64_t max_batch_size = 1;
  std::vector<ClusterEpisode> cluster_log;
  /// Every replica's health transitions, derived from the plan's crash
  /// and hang windows once the last batch is placed (cluster::HealthLog).
  std::vector<cluster::HealthTransition> health;
  /// PlanServe counts batches, cluster events and runs here;
  /// SummarizePlan completes it.
  ServerStats stats;
  LoadEvents load;  // filled by SummarizePlan
};

/// Plan serving `requests` (arrival cycles non-decreasing; request i has
/// id i) on `options.replicas` replicas.  Pure and single-threaded: it
/// never runs the datapath.
ServePlan PlanServe(std::span<const RequestArrival> requests,
                    const ServeOptions& options, const PlanCosts& costs);

/// Replay every replica's op list, one thread per replica, and fill the
/// `output` of each kOk request in `plan.requests` from `inputs`
/// (indexed by request id).  Checks that each weight checksum mismatch
/// is a scrub the plan predicted.
void ExecutePlan(ServePlan& plan, std::span<SystemReplica> replicas,
                 std::span<const Tensor> inputs,
                 const MemoryImage& provisioned, const MemoryMap& map);

/// Complete `plan.stats` and fill `plan.load` in one pass over the
/// records and fault records: status counts, retries and recovery,
/// the latency / queue-wait / service / batch-size histograms,
/// per-replica requests, batches and busy cycles, makespan, traffic,
/// injections by kind, scrubs and the sorted load events.  Seconds are
/// converted at `frequency_mhz`.  Run once, on a finished plan.
void SummarizePlan(ServePlan& plan, double frequency_mhz);

class InferenceServer {
 public:
  /// Serialises the weights into a DRAM image once, seals it, and starts
  /// `options.replicas` replicas, each a copy-on-write mapping of it.
  InferenceServer(const Network& net, const AcceleratorDesign& design,
                  const WeightStore& weights, ServeOptions options = {});

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Record one request.  Arrival cycles must be non-decreasing across
  /// calls.  `deadline_cycle` is the absolute cycle by which service
  /// must have started (0: use the options' default relative deadline,
  /// or none).  Returns the request id (dense, in submission order); a
  /// rejected or shed request still gets an id and a record with its
  /// status.  Throws db::ShutdownError once Drain has been called.
  std::int64_t Submit(Tensor input, std::int64_t arrival_cycle,
                      std::int64_t deadline_cycle = 0);

  /// End intake, plan and execute every submitted request, and return
  /// the records ordered by request id.  Idempotent.
  const std::vector<ServedRequest>& Drain();

  /// Aggregate metrics, as summarised by the first Drain().
  ServerStats Stats() const;

  /// Lifecycle observer (see ServerState).
  ServerState state() const { return state_.load(); }

  /// Cycle cost the planner charges per invocation (exposed so tests
  /// and benches can reason about the schedule analytically).
  std::int64_t cold_cycles() const { return costs_.cold.cycles; }
  std::int64_t steady_cycles() const { return costs_.steady.cycles; }

 private:
  /// Publish to the option sinks; each runs once, from the first
  /// Drain(), after SummarizePlan.
  void PublishTrace(obs::Tracer& tracer) const;
  void PublishMetrics(obs::MetricsRegistry& m) const;
  void PublishTimeSeries(obs::TimeSeriesRecorder& ts) const;

  const AcceleratorDesign& design_;
  ServeOptions options_;
  MemoryImage provisioned_;  // built once, sealed; every replica maps it
  std::vector<SystemReplica> replicas_;
  PlanCosts costs_;

  mutable std::mutex mu_;  // guards everything below
  std::vector<RequestArrival> arrivals_;
  std::vector<Tensor> inputs_;
  std::optional<ServePlan> plan_;  // set by the first Drain
  /// Written under mu_; atomic so state() reads it without the lock.
  std::atomic<ServerState> state_{ServerState::kServing};
};

}  // namespace db::serve
