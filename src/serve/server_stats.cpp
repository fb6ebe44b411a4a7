#include "serve/server_stats.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"
#include "serve/inference_server.h"

namespace db::serve {

double ServerStats::WorkerUtilization(int replica) const {
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(replica_busy_cycles.size()));
  if (makespan_cycles <= 0) return 0.0;
  return static_cast<double>(
             replica_busy_cycles[static_cast<std::size_t>(replica)]) /
         static_cast<double>(makespan_cycles);
}

std::string ServerStats::ToString() const {
  std::ostringstream os;
  os << StrFormat(
      "  %lld requests in %lld batches on %d replicas @ %.0f MHz\n",
      static_cast<long long>(requests), static_cast<long long>(batches),
      replicas, frequency_mhz);
  os << StrFormat("  makespan  %.4f ms   throughput %.1f req/s\n",
                  makespan_seconds * 1e3, throughput_rps);
  os << StrFormat(
      "  latency   p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  max %.4f ms\n",
      latency_p50_s * 1e3, latency_p90_s * 1e3, latency_p99_s * 1e3,
      latency_max_s * 1e3);
  os << StrFormat("  traffic   %lld DRAM bytes   energy %.4f J\n",
                  static_cast<long long>(total_dram_bytes), total_joules);
  os << StrFormat(
      "  outcomes  ok %lld  shed %lld  rejected %lld  deadline %lld  "
      "faulted %lld\n",
      static_cast<long long>(completed), static_cast<long long>(shed),
      static_cast<long long>(rejected),
      static_cast<long long>(deadline_exceeded),
      static_cast<long long>(faulted));
  if (faults_injected > 0 || retries > 0 || recovery_cycles > 0)
    os << StrFormat(
        "  faults    %lld injected  %lld retries  %lld recovery cycles\n",
        static_cast<long long>(faults_injected),
        static_cast<long long>(retries),
        static_cast<long long>(recovery_cycles));
  if (crashes > 0 || hangs > 0 || slow_faults > 0 || route_failures > 0 ||
      breaker_opens > 0 || hedges > 0)
    os << StrFormat(
        "  cluster   %lld crashes  %lld hangs  %lld slow  %lld "
        "route-fails  %lld redispatched  %lld readmissions  %lld "
        "breaker-opens  %lld/%lld hedges won\n",
        static_cast<long long>(crashes), static_cast<long long>(hangs),
        static_cast<long long>(slow_faults),
        static_cast<long long>(route_failures),
        static_cast<long long>(redispatched),
        static_cast<long long>(readmissions),
        static_cast<long long>(breaker_opens),
        static_cast<long long>(hedge_wins),
        static_cast<long long>(hedges));
  for (int r = 0; r < static_cast<int>(replica_busy_cycles.size()); ++r) {
    const auto idx = static_cast<std::size_t>(r);
    os << StrFormat("  replica %d  busy %lld cycles  (%.1f%% utilised)",
                    r,
                    static_cast<long long>(replica_busy_cycles[idx]),
                    WorkerUtilization(r) * 100.0);
    if (idx < replica_requests.size())
      os << StrFormat("  served %lld req in %lld batches",
                      static_cast<long long>(replica_requests[idx]),
                      static_cast<long long>(replica_batches[idx]));
    os << "\n";
  }
  return os.str();
}

void SummarizePlan(ServePlan& plan, double frequency_mhz) {
  DB_CHECK_MSG(frequency_mhz > 0, "frequency must be positive");
  ServerStats& stats = plan.stats;
  LoadEvents& load = plan.load;
  const std::size_t replicas = plan.replicas.size();
  stats.requests = static_cast<std::int64_t>(plan.requests.size());
  stats.frequency_mhz = frequency_mhz;
  stats.replica_busy_cycles.assign(replicas, 0);
  stats.replica_requests.assign(replicas, 0);
  stats.replica_batches.assign(replicas, 0);

  // kOk members of each batch, and the replica that ran it.
  struct BatchTally {
    int replica = 0;
    std::int64_t members = 0;
  };
  std::map<std::int64_t, BatchTally> batches;
  std::int64_t first_arrival = std::numeric_limits<std::int64_t>::max();
  for (const ServedRequest& r : plan.requests) {
    stats.retries += r.retries;
    stats.recovery_cycles += r.recovery_cycles;
    load.horizon =
        std::max({load.horizon, r.arrival_cycle, r.finish_cycle});
    switch (r.status) {
      case StatusCode::kShed: ++stats.shed; break;
      case StatusCode::kRejected: ++stats.rejected; break;
      case StatusCode::kDeadlineExceeded: ++stats.deadline_exceeded; break;
      case StatusCode::kFaulted: ++stats.faulted; break;
      case StatusCode::kOk: ++stats.completed; break;
    }
    if (r.status != StatusCode::kOk) {
      // Queued until its disposition; a rejected request never was.
      if (r.status != StatusCode::kRejected) {
        load.depth.emplace_back(r.arrival_cycle, +1);
        load.depth.emplace_back(r.finish_cycle, -1);
      }
      load.sheds.push_back(r.finish_cycle);
      continue;
    }
    DB_CHECK_MSG(r.finish_cycle >= r.arrival_cycle,
                 "request finishes before it arrives");
    DB_CHECK(r.replica >= 0 &&
             static_cast<std::size_t>(r.replica) < replicas);
    const auto i = static_cast<std::size_t>(r.replica);
    const std::int64_t service_start = r.finish_cycle - r.service_cycles;
    stats.replica_busy_cycles[i] += r.service_cycles;
    ++stats.replica_requests[i];
    BatchTally& batch = batches[r.batch_id];
    DB_CHECK_MSG(batch.members == 0 || batch.replica == r.replica,
                 "a batch ran on two replicas");
    batch.replica = r.replica;
    ++batch.members;
    stats.makespan_cycles = std::max(stats.makespan_cycles, r.finish_cycle);
    first_arrival = std::min(first_arrival, r.arrival_cycle);
    stats.latency_cycles.Observe(
        static_cast<double>(r.finish_cycle - r.arrival_cycle));
    stats.queue_wait_cycles.Observe(
        static_cast<double>(service_start - r.arrival_cycle));
    stats.service_cycles.Observe(static_cast<double>(r.service_cycles));
    stats.total_dram_bytes += r.dram_bytes;
    stats.total_joules += r.joules;
    load.depth.emplace_back(r.arrival_cycle, +1);
    load.depth.emplace_back(service_start, -1);
    load.in_flight.emplace_back(service_start, +1);
    load.in_flight.emplace_back(r.finish_cycle, -1);
  }
  for (const auto& [id, batch] : batches) {
    ++stats.replica_batches[static_cast<std::size_t>(batch.replica)];
    stats.batch_size.Observe(static_cast<double>(batch.members));
  }
  std::sort(load.depth.begin(), load.depth.end());
  std::sort(load.in_flight.begin(), load.in_flight.end());
  std::sort(load.sheds.begin(), load.sheds.end());
  std::int64_t depth = 0;
  for (const auto& [cycle, delta] : load.depth)
    stats.queue_depth_peak = std::max(stats.queue_depth_peak, depth += delta);

  for (const ReplicaPlan& replica : plan.replicas) {
    for (const fault::FaultRecord& record : replica.fault_records) {
      if (record.recovery) {
        // Scrubs answer a weight mismatch or readmit a crashed replica;
        // the other recovery windows are retries.
        if (record.kind == fault::FaultKind::kBitFlip ||
            record.kind == fault::FaultKind::kCrash)
          ++stats.scrubs;
        continue;
      }
      switch (record.kind) {
        case fault::FaultKind::kBitFlip: ++stats.bit_flips; break;
        case fault::FaultKind::kTransient: ++stats.transients; break;
        case fault::FaultKind::kStall: ++stats.stalls; break;
        default:
          // Cluster faults fire at dispatch; a replica's record only
          // holds them as recovery windows.
          DB_CHECK_MSG(false, "cluster fault in a replica fault record");
      }
    }
  }
  stats.faults_injected = stats.bit_flips + stats.transients + stats.stalls +
                          stats.crashes + stats.hangs + stats.slow_faults +
                          stats.route_failures;
  stats.health_transitions = static_cast<std::int64_t>(plan.health.size());

  const double cycles_to_s = 1.0 / (frequency_mhz * 1e6);
  stats.makespan_seconds =
      static_cast<double>(stats.makespan_cycles) * cycles_to_s;
  if (stats.completed == 0) return;  // nothing reached the datapath
  const double span_s =
      static_cast<double>(stats.makespan_cycles - first_arrival) *
      cycles_to_s;
  if (span_s > 0)
    stats.throughput_rps = static_cast<double>(stats.completed) / span_s;
  stats.latency_p50_s = stats.latency_cycles.P50() * cycles_to_s;
  stats.latency_p90_s = stats.latency_cycles.P90() * cycles_to_s;
  stats.latency_p99_s = stats.latency_cycles.P99() * cycles_to_s;
  stats.latency_max_s = stats.latency_cycles.max * cycles_to_s;
  stats.latency_mean_s = stats.latency_cycles.Mean() * cycles_to_s;
}

}  // namespace db::serve
