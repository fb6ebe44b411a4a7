// Per-request records and aggregate metrics of an inference-server run.
//
// All times are *simulated*: cycles of the generated accelerator's clock
// converted through the design's frequency.  A request's latency is
// queueing (waiting for its batch to close and a replica to free up) plus
// service (its position inside the batch on the replica's datapath):
//
//   latency = finish_cycle − arrival_cycle
//
// Percentiles come from the shared log-bucket quantile histogram
// (obs::HistogramStats): latencies are observed *in cycles* into
// `latency_cycles` and every reported percentile is that histogram's
// deterministic nearest-rank bucket quantile converted to seconds.
// The server's `serve.latency_cycles` metric is a copy of that same
// histogram, so BENCH_serve.json, Stats() and the registry can never
// disagree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace db::serve {

/// Everything the server knows about one completed request.  `status`
/// records the disposition: only kOk requests carry an output and
/// service accounting; shed / rejected / expired / faulted requests
/// complete without ever occupying a datapath slot (their timing fields
/// beyond arrival and finish stay zero).
struct ServedRequest {
  std::int64_t id = 0;
  std::int64_t batch_id = 0;
  int replica = -1;
  std::int64_t arrival_cycle = 0;
  std::int64_t deadline_cycle = 0;  // 0 = none; service must start by it
  std::int64_t start_cycle = 0;   // its batch began service
  std::int64_t finish_cycle = 0;  // its own image completed
  std::int64_t service_cycles = 0;  // datapath cycles of its image
  std::int64_t dram_bytes = 0;
  double joules = 0.0;
  StatusCode status = StatusCode::kOk;
  int retries = 0;  // transient-fault attempts retried before success
  /// Cycles lost to injected faults and their recovery on this request:
  /// stalls, weight-region scrubs and retry backoff, all simulated.
  std::int64_t recovery_cycles = 0;
  Tensor output;
};

/// Aggregate metrics over one completed run: the single summary every
/// serving report — Stats(), the metrics registry, the load time-series
/// and the CLI report — is read from.  The planner counts batches,
/// cluster events and datapath runs into it as it goes; SummarizePlan
/// fills the rest in one pass over the records and fault records.
/// Latency, throughput and traffic aggregates cover the `completed`
/// (status kOk) requests; the robustness counters account for
/// everything else.
struct ServerStats {
  std::int64_t requests = 0;
  std::int64_t batches = 0;  // dispatches committed to a replica
  int replicas = 0;
  double frequency_mhz = 0.0;

  /// Robustness accounting (see StatusCode).
  std::int64_t completed = 0;           // status == kOk
  std::int64_t shed = 0;                // evicted under kShedOldest
  std::int64_t rejected = 0;            // refused under kReject
  std::int64_t deadline_exceeded = 0;   // expired before service
  std::int64_t faulted = 0;             // retries exhausted
  std::int64_t retries = 0;             // transient attempts retried
  std::int64_t faults_injected = 0;     // events the injector fired
  std::int64_t recovery_cycles = 0;     // stall + scrub + backoff cycles

  /// Datapath fault injections by kind, and the weight scrubs (integrity
  /// mismatches plus readmit passes) they and crashes caused.
  std::int64_t bit_flips = 0;
  std::int64_t transients = 0;
  std::int64_t stalls = 0;
  std::int64_t scrubs = 0;

  /// Cluster-resilience accounting.  The planner counts these as the
  /// events fire, breaker opens included (its breaker owns route
  /// failures and crashes); health transitions are read from the
  /// plan's health log (derived from its crash and hang windows).  A
  /// hedge is placed only where it beats the primary, so `hedge_wins`
  /// always equals `hedges`; both stay in the exports.
  std::int64_t crashes = 0;             // replica crash events fired
  std::int64_t hangs = 0;               // replica hang windows fired
  std::int64_t slow_faults = 0;         // slow-replica windows fired
  std::int64_t route_failures = 0;      // transient routing failures
  std::int64_t redispatched = 0;        // requests moved off a crash
  std::int64_t readmissions = 0;        // scrub-and-readmit passes
  std::int64_t breaker_opens = 0;       // circuit-breaker open episodes
  std::int64_t hedges = 0;              // hedged batches issued
  std::int64_t hedge_wins = 0;          // hedges that beat the primary
  std::int64_t health_transitions = 0;  // health log entries

  /// Datapath runs in the plan, by weight residency: the "sim.*"
  /// metrics are published once per kind with these counts.
  std::int64_t cold_runs = 0;
  std::int64_t warm_runs = 0;

  /// Simulated makespan: the largest finish cycle over the kOk requests.
  std::int64_t makespan_cycles = 0;
  double makespan_seconds = 0.0;

  /// completed / (makespan − first kOk arrival), in simulated seconds.
  double throughput_rps = 0.0;

  /// Distributions over the kOk requests in simulated cycles — the
  /// shared quantile histograms the registry's `serve.latency_cycles`,
  /// `serve.queue_wait_cycles` and `serve.service_cycles` are copied
  /// from — and `batch_size`, the kOk members of each batch.
  obs::HistogramStats latency_cycles;
  obs::HistogramStats queue_wait_cycles;
  obs::HistogramStats service_cycles;
  obs::HistogramStats batch_size;

  /// Bucket quantiles of `latency_cycles`, simulated seconds.
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  double latency_mean_s = 0.0;

  /// Most requests waiting at once (admitted, service not started).
  std::int64_t queue_depth_peak = 0;

  std::int64_t total_dram_bytes = 0;
  double total_joules = 0.0;

  /// Per replica (indexed by the record's replica index): service cycles
  /// of its kOk requests (utilisation = busy / makespan), the kOk
  /// requests it served, the distinct batches that served at least one
  /// of them, and every batch dispatched to it.
  std::vector<std::int64_t> replica_busy_cycles;
  std::vector<std::int64_t> replica_requests;
  std::vector<std::int64_t> replica_batches;
  std::vector<std::int64_t> replica_dispatches;

  /// replica_busy_cycles[replica] / makespan (0 for an empty run).
  double WorkerUtilization(int replica) const;
  std::string ToString() const;
};

}  // namespace db::serve
