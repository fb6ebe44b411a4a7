// Per-request records and aggregate metrics of an inference-server run.
//
// All times are *simulated*: cycles of the generated accelerator's clock
// converted through the design's frequency.  A request's latency is
// queueing (waiting for its batch to close and a worker to free up) plus
// service (its position inside the batch on the worker's datapath):
//
//   latency = finish_cycle − arrival_cycle
//
// Percentiles come from the shared log-bucket quantile histogram
// (obs::HistogramStats): latencies are observed *in cycles* into
// `latency_cycles` and every reported percentile is that histogram's
// deterministic nearest-rank bucket quantile converted to seconds.
// Benches and the server's metrics registry use the same histogram
// type over the same samples, so BENCH_serve.json and the
// `serve.latency_cycles` metric can never disagree.
#pragma once

#include <cstdint>
#include <span>
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
  int worker = -1;
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

/// Aggregate metrics over one completed run.  Latency, throughput and
/// traffic aggregates cover the `completed` (status kOk) requests;
/// the robustness counters account for everything else.
struct ServerStats {
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  int workers = 0;
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

  /// Cluster-resilience accounting, filled by InferenceServer::Stats()
  /// from the plan (ComputeServerStats leaves them zero — the records
  /// alone cannot see cluster events).
  std::int64_t crashes = 0;             // replica crash events fired
  std::int64_t hangs = 0;               // replica hang windows fired
  std::int64_t slow_faults = 0;         // slow-replica windows fired
  std::int64_t route_failures = 0;      // transient routing failures
  std::int64_t redispatched = 0;        // requests moved off a crash
  std::int64_t readmissions = 0;        // scrub-and-readmit passes
  std::int64_t breaker_opens = 0;       // circuit-breaker open episodes
  std::int64_t hedges = 0;              // hedged batches issued
  std::int64_t hedge_wins = 0;          // hedges that beat the primary
  std::int64_t health_transitions = 0;  // monitor state changes

  /// Simulated makespan: the largest finish cycle over all requests.
  std::int64_t makespan_cycles = 0;
  double makespan_seconds = 0.0;

  /// requests / (last finish − first arrival), in simulated seconds.
  double throughput_rps = 0.0;

  /// Latency distribution of the kOk requests in simulated cycles —
  /// the shared quantile histogram the percentiles below are read from
  /// (identical, bucket for bucket, to the server's
  /// `serve.latency_cycles` registry metric).
  obs::HistogramStats latency_cycles;

  /// Bucket quantiles of `latency_cycles`, simulated seconds.
  double latency_p50_s = 0.0;
  double latency_p90_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  double latency_mean_s = 0.0;

  std::int64_t total_dram_bytes = 0;
  double total_joules = 0.0;

  /// Busy cycles per worker; utilisation = busy / makespan.
  std::vector<std::int64_t> worker_busy_cycles;

  /// Per-replica service aggregation, derived from the records (the
  /// record's worker index is the replica index): kOk requests served
  /// and distinct batches executed on each replica.  Sized like
  /// worker_busy_cycles; a replica the router never picked reads zero.
  std::vector<std::int64_t> replica_requests;
  std::vector<std::int64_t> replica_batches;

  double WorkerUtilization(int worker) const;
  std::string ToString() const;
};

/// Aggregate the per-request records (order-independent).
/// `worker_busy_cycles[w]` must hold worker w's total service cycles.
/// Status counts, retries and recovery cycles are derived from the
/// records; `faults_injected` is the caller's (it knows the plan).
ServerStats ComputeServerStats(std::span<const ServedRequest> requests,
                               std::int64_t batches, double frequency_mhz,
                               std::vector<std::int64_t> worker_busy_cycles);

}  // namespace db::serve
