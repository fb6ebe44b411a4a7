// PlanServe: the inference server's single-threaded simulated-time pass
// (see inference_server.h for the contract).
#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "common/error.h"
#include "serve/batcher.h"
#include "serve/inference_server.h"

namespace db::serve {

std::int64_t RetryBackoffCycles(std::int64_t base, int attempt,
                                std::int64_t cap) {
  if (base <= 0) return 0;
  if (attempt < 0) attempt = 0;
  // `base << attempt` overflows exactly when base > cap >> attempt (or
  // the shift itself would exceed the int64 width); both saturate to the
  // cap instead of wrapping.
  if (attempt >= 63 || base > (cap >> attempt)) return cap;
  return std::min(cap, base << attempt);
}

ServePlan::ServePlan(int replicas, const ServeOptions& options)
    : replicas(static_cast<std::size_t>(replicas)),
      max_batch_size(options.max_batch_size) {
  stats.replicas = replicas;
  stats.replica_dispatches.assign(static_cast<std::size_t>(replicas), 0);
}

namespace {

class Planner {
 public:
  Planner(const ServeOptions& options, const PlanCosts& costs)
      : options_(options),
        costs_(costs),
        count_(options.replicas),
        injector_(options.faults, count_),
        plan_(count_, options),
        breaker_(count_, options.breaker),
        free_cycle_(static_cast<std::size_t>(count_), 0),
        state_(static_cast<std::size_t>(count_)) {
    DB_CHECK_MSG(options.hedge_after_cycles >= 0,
                 "hedge_after_cycles must be >= 0");
    DB_CHECK_MSG(options.deadline_cycles >= 0,
                 "deadline_cycles must be >= 0");
  }

  ServePlan Plan(std::span<const RequestArrival> requests);

 private:
  /// A batch's window on a replica: start/finish from the replica's
  /// free cycle, per-request slow surcharges from its slow-fault state.
  /// Side-effect free so hedging can evaluate alternates.
  struct BatchWindow {
    std::int64_t start = 0;
    std::int64_t finish = 0;
    std::vector<std::int64_t> penalties;
  };

  struct CrashSplit {
    bool crashed = false;
    std::int64_t event_invocation = 0;  // clamped into the window
    std::int64_t down_cycles = 0;
  };

  /// Per-replica planning state.
  struct Replica {
    // The dispatch-side view: what has been committed to the replica.
    bool scheduled_warm = false;
    /// Committed services — the coordinate of cluster fault events.
    std::int64_t scheduled = 0;
    std::size_t cluster_cursor = 0;
    std::int64_t slow_factor = 1;
    std::int64_t slow_services = 0;  // invocations the factor still covers
    // The replica's own timeline: recovery it pays pushes it past the
    // dispatch-side view, which never sees it.
    bool warm = false;
    std::int64_t cycle = 0;
    /// Attempted services — the coordinate of datapath fault events.
    std::int64_t invocations = 0;
    std::size_t fault_cursor = 0;
    /// Weight-region bytes that differ from the provisioned image, as
    /// address → XOR mask: a checksum mismatches exactly when non-empty.
    std::map<std::int64_t, std::uint8_t> toggled;
  };

  void Dispose(std::int64_t id, StatusCode status, std::int64_t cycle);
  /// Place `batch` at its ready cycle: least-loaded routing, cluster
  /// faults, optional hedging, then commit to a replica.
  void Dispatch(Batch batch);
  BatchWindow Window(int r, const Batch& batch, std::int64_t ready) const;
  bool FireClusterEvents(int r, std::int64_t size, std::int64_t ready,
                         CrashSplit* crash);
  void Commit(int r, const Batch& batch, const BatchWindow& window);
  void Serve(int r, const Batch& batch, const BatchWindow& window);
  void Readmit(int r, std::int64_t readmit_cycle);
  /// Charge a `cycles`-long recovery window from `start` on replica r's
  /// timeline and log it; returns its end.
  std::int64_t Recover(int r, fault::FaultKind kind,
                       std::int64_t invocation, std::int64_t request,
                       std::int64_t start, std::int64_t cycles,
                       std::int64_t detail);
  void CancelHedge(int r, std::int64_t start, std::int64_t cancel);
  /// Record a dispatch failure of replica r at `cycle`; a breaker it
  /// opens holds the replica's free cycle until the cooldown ends.
  void Fail(int r, std::int64_t cycle);
  bool InWeights(std::int64_t addr) const;
  void Log(const char* name, int replica, std::int64_t start,
           std::int64_t end,
           std::vector<std::pair<std::string, std::string>> args = {});
  ServedRequest& Record(std::int64_t id) {
    return plan_.requests[static_cast<std::size_t>(id)];
  }
  Replica& At(int r) { return state_[static_cast<std::size_t>(r)]; }
  ReplicaPlan& Out(int r) {
    return plan_.replicas[static_cast<std::size_t>(r)];
  }

  const ServeOptions& options_;
  const PlanCosts& costs_;
  const int count_;
  fault::FaultInjector injector_;
  ServePlan plan_;
  cluster::CircuitBreaker breaker_;
  std::vector<std::int64_t> free_cycle_;  // the dispatch-side view
  std::vector<Replica> state_;
  std::vector<cluster::Outage> outages_;  // crash and hang windows
  std::int64_t redispatch_batches_ = 0;  // fresh ids for remainders
};

ServePlan Planner::Plan(std::span<const RequestArrival> requests) {
  plan_.requests.resize(requests.size());
  Batcher batcher(
      BatchPolicy{options_.max_batch_size, options_.linger_cycles});
  // Admitted, not-yet-shed members of the open batch: the simulated-time
  // queue the admission policy acts on.  Shed members stay in the batch
  // (they still take their invocation slot in the dispatch) but are
  // never served.
  std::deque<std::int64_t> waiting;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const std::int64_t arrival = requests[i].arrival_cycle;
    ServedRequest& record = Record(id);
    record.id = id;
    record.arrival_cycle = arrival;
    record.deadline_cycle = requests[i].deadline_cycle;
    if (record.deadline_cycle == 0 && options_.deadline_cycles > 0)
      record.deadline_cycle = arrival + options_.deadline_cycles;

    if (std::optional<Batch> expired = batcher.Expire(arrival)) {
      waiting.clear();
      Dispatch(*std::move(expired));
    }
    if (options_.admission != AdmissionPolicy::kBlock &&
        waiting.size() >= options_.queue_capacity) {
      if (options_.admission == AdmissionPolicy::kReject) {
        Dispose(id, StatusCode::kRejected, arrival);
        continue;
      }
      if (!waiting.empty()) {
        Dispose(waiting.front(), StatusCode::kShed, arrival);
        waiting.pop_front();
      }
    }
    waiting.push_back(id);
    if (std::optional<Batch> full = batcher.Add(id, arrival)) {
      waiting.clear();
      Dispatch(*std::move(full));
    }
  }
  if (std::optional<Batch> rest = batcher.Flush())
    Dispatch(*std::move(rest));
  plan_.health =
      cluster::HealthLog(count_, outages_, costs_.scrub_cycles);
  plan_.stats.breaker_opens = breaker_.opens();
  return std::move(plan_);
}

void Planner::Dispose(std::int64_t id, StatusCode status,
                      std::int64_t cycle) {
  ServedRequest& record = Record(id);
  record.status = status;
  record.finish_cycle = cycle;
}

bool Planner::InWeights(std::int64_t addr) const {
  for (const auto& [base, end] : costs_.weight_regions)
    if (addr >= base && addr < end) return true;
  return false;
}

void Planner::Log(const char* name, int replica, std::int64_t start,
                  std::int64_t end,
                  std::vector<std::pair<std::string, std::string>> args) {
  plan_.cluster_log.push_back(
      ClusterEpisode{name, replica, start, end, std::move(args)});
}

Planner::BatchWindow Planner::Window(int r, const Batch& batch,
                                     std::int64_t ready) const {
  // The dispatch-side view: the fault-free costs plus the replica's
  // known slow factor.  Recovery a replica pays on its own timeline
  // never feeds back into placement.
  const Replica& rep = state_[static_cast<std::size_t>(r)];
  BatchWindow window;
  window.start = std::max(ready, free_cycle_[static_cast<std::size_t>(r)]);
  std::int64_t duration = 0;
  std::int64_t slow_left = rep.slow_services;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const bool warm = rep.scheduled_warm || i > 0;
    const std::int64_t base =
        warm ? costs_.steady.cycles : costs_.cold.cycles;
    std::int64_t penalty = 0;
    if (slow_left > 0) {
      penalty = base * (rep.slow_factor - 1);
      --slow_left;
    }
    window.penalties.push_back(penalty);
    duration += base + penalty;
  }
  window.finish = window.start + duration;
  return window;
}

bool Planner::FireClusterEvents(int r, std::int64_t size,
                                std::int64_t ready, CrashSplit* crash) {
  Replica& rep = At(r);
  const std::vector<fault::FaultEvent>& events =
      injector_.ClusterForReplica(r);
  while (rep.cluster_cursor < events.size() &&
         events[rep.cluster_cursor].invocation < rep.scheduled + size) {
    const fault::FaultEvent& event = events[rep.cluster_cursor++];
    switch (event.kind) {
      case fault::FaultKind::kRouteFail:
        // This dispatch attempt never reaches the replica; the caller
        // re-routes to another one.  The failure is the breaker's alone:
        // the replica itself is alive.
        ++plan_.stats.route_failures;
        Log("route_fail", r, ready, ready);
        Fail(r, ready);
        return false;
      case fault::FaultKind::kHang: {
        // The replica stalls before accepting work.
        std::int64_t& free = free_cycle_[static_cast<std::size_t>(r)];
        const std::int64_t begin = std::max(ready, free);
        free = begin + event.stall_cycles;
        outages_.push_back({.replica = r, .from = begin, .until = free});
        ++plan_.stats.hangs;
        Log("hang", r, begin, free,
            {{"cycles", std::to_string(event.stall_cycles)}});
        break;
      }
      case fault::FaultKind::kSlow:
        // The next `slow_services` invocations on the replica cost
        // `slow_factor` times their planned charge.
        rep.slow_factor = event.slow_factor;
        rep.slow_services = event.slow_services;
        ++plan_.stats.slow_faults;
        Log("slow", r, ready, ready,
            {{"factor", std::to_string(event.slow_factor)},
             {"services", std::to_string(event.slow_services)}});
        break;
      case fault::FaultKind::kCrash:
        // The replica dies partway through the window; the caller splits
        // the batch at the crash coordinate and re-dispatches the rest.
        crash->crashed = true;
        crash->event_invocation = std::max(event.invocation, rep.scheduled);
        crash->down_cycles = event.down_cycles;
        return true;
      default:
        DB_CHECK_MSG(false, "datapath fault in the cluster partition");
    }
  }
  return true;
}

void Planner::Dispatch(Batch batch) {
  const std::int64_t ready = batch.ready_cycle;
  const auto size = static_cast<std::int64_t>(batch.requests.size());
  const auto count = static_cast<std::size_t>(count_);

  // Least-loaded routing with deterministic re-route on transient
  // failures: the earliest-free replica not yet tried for this batch
  // wins, else the earliest-free one (ties to the lowest index).  No
  // signal is a mask: a crashed replica's free cycle already carries its
  // down time and readmit scrub, a hung one's the end of the hang, one
  // with an open breaker the end of the cooldown.
  std::vector<bool> attempted(count, false);
  const auto key = [&](int i) {
    const auto u = static_cast<std::size_t>(i);
    return std::pair(attempted[u], free_cycle_[u]);
  };
  int r = -1;
  for (;;) {
    r = 0;
    for (int i = 1; i < count_; ++i)
      if (key(i) < key(r)) r = i;
    CrashSplit crash;
    if (!FireClusterEvents(r, size, ready, &crash)) {
      attempted[static_cast<std::size_t>(r)] = true;
      continue;
    }
    if (!crash.crashed) break;

    // Crash inside the dispatch window: the prefix before the crash
    // coordinate was served by the dying replica; the remainder is
    // re-dispatched to a survivor at the crash cycle under a fresh batch
    // id from the reserved re-dispatch range (batcher ids stay below
    // 1 << 20 for any realistic workload).
    Replica& rep = At(r);
    const std::int64_t prefix = crash.event_invocation - rep.scheduled;
    DB_CHECK(prefix >= 0 && prefix < size);
    Batch served;
    served.id = batch.id;
    Batch rest;
    rest.id = (std::int64_t{1} << 20) + redispatch_batches_++;
    served.requests.assign(batch.requests.begin(),
                           batch.requests.begin() + prefix);
    rest.requests.assign(batch.requests.begin() + prefix,
                         batch.requests.end());
    std::int64_t crash_cycle =
        std::max(ready, free_cycle_[static_cast<std::size_t>(r)]);
    if (prefix > 0) {
      const BatchWindow window = Window(r, served, ready);
      crash_cycle = window.finish;
      Commit(r, served, window);
    }
    ++plan_.stats.crashes;
    const std::int64_t readmit = crash_cycle + crash.down_cycles;
    outages_.push_back(
        {.replica = r, .from = crash_cycle, .until = readmit, .crash = true});
    // The replica is gone until `readmit`, then pays the scrub pass
    // before its datapath frees; a reboot loses weight residency.
    free_cycle_[static_cast<std::size_t>(r)] = readmit + costs_.scrub_cycles;
    Fail(r, crash_cycle);
    rep.scheduled_warm = false;
    rep.slow_factor = 1;
    rep.slow_services = 0;
    Log("crash", r, crash_cycle, readmit + costs_.scrub_cycles,
        {{"down", std::to_string(crash.down_cycles)},
         {"redispatched", std::to_string(rest.requests.size())}});
    Readmit(r, readmit);
    ++plan_.stats.readmissions;
    plan_.stats.redispatched +=
        static_cast<std::int64_t>(rest.requests.size());
    rest.ready_cycle = std::max(ready, crash_cycle);
    Dispatch(std::move(rest));
    return;
  }

  const BatchWindow primary = Window(r, batch, ready);
  if (options_.hedge_after_cycles > 0 &&
      primary.finish - ready > options_.hedge_after_cycles) {
    // Hedge: a duplicate on the other replica that finishes first,
    // issued once the latency threshold elapses.  The windows are known
    // here, so a copy goes out only where it beats the primary; a losing
    // copy would only occupy its replica.
    const std::int64_t issue = ready + options_.hedge_after_cycles;
    int best = -1;
    BatchWindow alternate = primary;  // the finish a copy must beat
    for (int i = 0; i < count_; ++i) {
      if (i == r) continue;
      BatchWindow candidate = Window(i, batch, issue);
      if (candidate.finish < alternate.finish) {
        best = i;
        alternate = std::move(candidate);
      }
    }
    if (best >= 0) {
      ++plan_.stats.hedges;
      ++plan_.stats.hedge_wins;
      // The primary is cancelled at the winner's completion.  Its batch
      // still counts against a slow window, as a committed one does, so
      // a slow replica whose batches are all hedged away recovers.
      Replica& rep = At(r);
      rep.slow_services = std::max<std::int64_t>(0, rep.slow_services - size);
      if (primary.start < alternate.finish) {
        free_cycle_[static_cast<std::size_t>(r)] = alternate.finish;
        CancelHedge(r, primary.start, alternate.finish);
      }
      Log("hedge", best, issue, alternate.finish,
          {{"primary", std::to_string(r)}});
      Commit(best, batch, alternate);
      return;
    }
  }
  Commit(r, batch, primary);
}

void Planner::Commit(int r, const Batch& batch, const BatchWindow& window) {
  Replica& rep = At(r);
  const auto size = static_cast<std::int64_t>(batch.requests.size());
  free_cycle_[static_cast<std::size_t>(r)] = window.finish;
  rep.scheduled_warm = true;
  rep.scheduled += size;
  rep.slow_services = std::max<std::int64_t>(0, rep.slow_services - size);
  ++plan_.stats.batches;
  ++plan_.stats.replica_dispatches[static_cast<std::size_t>(r)];
  // A committed dispatch is the breaker's success signal: the replica
  // accepted work at the planned start.
  breaker_.RecordSuccess(r, window.start);
  Serve(r, batch, window);
}

void Planner::Serve(int r, const Batch& batch, const BatchWindow& window) {
  Replica& rep = At(r);
  ReplicaPlan& out = Out(r);
  const std::vector<fault::FaultEvent>& events = injector_.ForReplica(r);
  // Weight-region integrity checks only run on replicas whose fault
  // slice can corrupt weights.
  const bool integrity_checks = injector_.HasWeightFlips(r);

  // Recovery may have pushed the replica past the dispatch-side start;
  // service never begins before its datapath frees.
  std::int64_t cycle = std::max(window.start, rep.cycle);
  const std::int64_t batch_start = cycle;
  for (std::size_t slot = 0; slot < batch.requests.size(); ++slot) {
    const std::int64_t id = batch.requests[slot];
    ServedRequest& record = Record(id);
    // Shed at admission after its batch membership was fixed: the slot
    // passes without touching the replica.
    if (record.status != StatusCode::kOk) continue;
    record.batch_id = batch.id;
    record.replica = r;

    // 1. Fire every datapath fault bound to this invocation.
    std::int64_t stall = 0;
    int failures = 0;
    while (rep.fault_cursor < events.size() &&
           events[rep.fault_cursor].invocation <= rep.invocations) {
      const fault::FaultEvent& event = events[rep.fault_cursor++];
      fault::FaultRecord fault{
          event.kind, false, r, rep.invocations, id, cycle, cycle, 0};
      switch (event.kind) {
        case fault::FaultKind::kBitFlip: {
          out.ops.push_back({.kind = ReplicaOp::Kind::kFlip,
                             .bit = event.bit,
                             .arg = event.addr});
          if (InWeights(event.addr)) {
            std::uint8_t& mask = rep.toggled[event.addr];
            mask ^= static_cast<std::uint8_t>(1u << event.bit);
            if (mask == 0) rep.toggled.erase(event.addr);
          }
          fault.detail = event.addr;
          break;
        }
        case fault::FaultKind::kTransient:
          fault.detail = ++failures;
          break;
        case fault::FaultKind::kStall:
          fault.end_cycle = cycle + event.stall_cycles;
          fault.detail = event.stall_cycles;
          stall += event.stall_cycles;
          break;
        default:
          DB_CHECK_MSG(false, "cluster fault in a datapath partition");
      }
      out.fault_records.push_back(fault);
    }
    ++rep.invocations;
    std::int64_t recovery = stall;
    if (stall > 0) out.busy_intervals.emplace_back(cycle, cycle + stall);
    cycle += stall;

    // 2. Deadline: an expired request completes without occupying the
    // datapath.
    if (record.deadline_cycle > 0 && cycle > record.deadline_cycle) {
      record.status = StatusCode::kDeadlineExceeded;
      record.finish_cycle = cycle;
      record.recovery_cycles = recovery;
      continue;
    }

    // 3. Weight-region integrity: the checksum mismatches exactly when
    // a weight bit differs from the provisioned image, and the scrub
    // reloads the regions from it.
    if (integrity_checks) {
      const bool scrub = !rep.toggled.empty();
      out.ops.push_back({.kind = ReplicaOp::Kind::kVerify, .scrub = scrub});
      if (scrub) {
        rep.toggled.clear();
        cycle = Recover(r, fault::FaultKind::kBitFlip, rep.invocations - 1,
                        id, cycle, costs_.scrub_cycles, costs_.scrub_cycles);
        recovery += costs_.scrub_cycles;
      }
    }

    // 4. Transient failures: bounded retries with exponential backoff;
    // each failed attempt occupied the datapath.
    const InvocationCost& cost = rep.warm ? costs_.steady : costs_.cold;
    int retries = 0;
    while (failures > 0 && retries < kMaxRetries) {
      const std::int64_t backoff =
          RetryBackoffCycles(kRetryBackoffCycles, retries,
                             kMaxRetryBackoffCycles);
      cycle = Recover(r, fault::FaultKind::kTransient, rep.invocations - 1,
                      id, cycle, cost.cycles + backoff, backoff);
      recovery += cost.cycles + backoff;
      --failures;
      ++retries;
    }
    record.retries = retries;
    record.recovery_cycles = recovery;
    if (failures > 0) {
      // Retries exhausted: fail the request, never the server.
      record.status = StatusCode::kFaulted;
      record.finish_cycle = cycle;
      continue;
    }

    out.ops.push_back(
        {.kind = ReplicaOp::Kind::kRun, .warm = rep.warm, .arg = id});
    ++(rep.warm ? plan_.stats.warm_runs : plan_.stats.cold_runs);
    const std::int64_t service = cost.cycles + window.penalties[slot];
    record.start_cycle = batch_start;
    record.finish_cycle = cycle + service;
    record.service_cycles = service;
    record.dram_bytes = cost.dram_bytes;
    record.joules = cost.joules;
    rep.warm = true;
    out.busy_intervals.emplace_back(cycle, record.finish_cycle);
    cycle = record.finish_cycle;
  }
  rep.cycle = cycle;
}

void Planner::Readmit(int r, std::int64_t readmit_cycle) {
  // A crashed card reboots from unknown DRAM: readmission re-verifies
  // the weight regions (reloading on mismatch) and charges one scrub
  // either way; the reboot loses weight residency.
  Replica& rep = At(r);
  ReplicaPlan& out = Out(r);
  out.ops.push_back(
      {.kind = ReplicaOp::Kind::kVerify, .scrub = !rep.toggled.empty()});
  rep.toggled.clear();
  rep.cycle = Recover(r, fault::FaultKind::kCrash, rep.invocations, -1,
                      std::max(rep.cycle, readmit_cycle),
                      costs_.scrub_cycles, costs_.scrub_cycles);
  rep.warm = false;
}

std::int64_t Planner::Recover(int r, fault::FaultKind kind,
                              std::int64_t invocation, std::int64_t request,
                              std::int64_t start, std::int64_t cycles,
                              std::int64_t detail) {
  ReplicaPlan& out = Out(r);
  out.fault_records.push_back(fault::FaultRecord{
      kind, true, r, invocation, request, start, start + cycles, detail});
  out.busy_intervals.emplace_back(start, start + cycles);
  return start + cycles;
}

void Planner::Fail(int r, std::int64_t cycle) {
  const std::int64_t until = breaker_.RecordFailure(r, cycle);
  if (until == 0) return;
  // The hold: the replica takes no new work before the cooldown ends.
  std::int64_t& free = free_cycle_[static_cast<std::size_t>(r)];
  const std::int64_t begin = std::max(cycle, free);
  free = std::max(free, until);
  Log("breaker_open", r, begin, free);
}

void Planner::CancelHedge(int r, std::int64_t start, std::int64_t cancel) {
  // The cancelled copy occupied the replica from its start until the
  // winner completed but never ran the datapath: warm state and outputs
  // are untouched.
  Replica& rep = At(r);
  const std::int64_t begin = std::max(rep.cycle, start);
  const std::int64_t end = std::max(cancel, begin);
  if (begin < end) Out(r).busy_intervals.emplace_back(begin, end);
  rep.cycle = end;
}

}  // namespace

ServePlan PlanServe(std::span<const RequestArrival> requests,
                    const ServeOptions& options, const PlanCosts& costs) {
  DB_CHECK_MSG(options.replicas >= 1, "server needs at least one replica");
  return Planner(options, costs).Plan(requests);
}

}  // namespace db::serve
