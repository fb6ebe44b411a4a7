// Replica health tracking and failure isolation for the replicated
// accelerators — the cluster-resilience substrate the serving planner
// drives.
//
// ReplicaHealthMonitor runs a per-replica state machine
//
//   kHealthy -> kSuspect -> kDown -> kRecovering -> kHealthy
//
// in *simulated time*.  It tracks liveness only: crashes and hang
// windows reported by the planner are converted into transitions
// quantised onto a simulated heartbeat grid (a hang is observed as
// missed heartbeats; recovery is observed at the first heartbeat after
// the window), and a replica that went down pays a scrub-and-readmit
// pass before it is healthy again.  Every transition is scheduled
// eagerly when the cause is reported and applied when the monitor's
// clock advances past it (AdvanceTo), so the transition log — and
// everything derived from it (spans, metrics, the health time-series) —
// is a pure function of the reported event sequence, never of thread
// timing.
//
// CircuitBreaker is the per-replica closed -> open -> half-open machine
// that owns dispatch failures (route failures and crashes):
// `failure_threshold` consecutive failures open the breaker for
// `cooldown_cycles`; after the cooldown it is half-open and one trial
// dispatch decides between closing it and re-opening it.  State is
// derived from the recorded (failure cycle, cooldown) pairs, so queries
// are pure.
//
// Threading contract: both classes are single-writer (the serving
// planner, which runs on one thread).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace db::cluster {

enum class ReplicaHealth { kHealthy, kSuspect, kDown, kRecovering };

constexpr const char* ReplicaHealthName(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kSuspect: return "suspect";
    case ReplicaHealth::kDown: return "down";
    case ReplicaHealth::kRecovering: return "recovering";
  }
  return "unknown";
}

/// Numeric code for the health time-series export (healthy=0,
/// suspect=1, down=2, recovering=3).
constexpr int ReplicaHealthCode(ReplicaHealth health) {
  return static_cast<int>(health);
}

/// The simulated heartbeat grid: hang detection and hang recovery are
/// observed on multiples of this interval.
constexpr std::int64_t kHeartbeatIntervalCycles = 512;
/// Missed heartbeats inside an unresponsive window before kSuspect /
/// kDown.
constexpr int kSuspectAfterMisses = 1;
constexpr int kDownAfterMisses = 4;
static_assert(1 <= kSuspectAfterMisses &&
              kSuspectAfterMisses <= kDownAfterMisses);

/// One recorded state change, in the order it took simulated effect.
struct HealthTransition {
  int replica = 0;
  std::int64_t cycle = 0;
  ReplicaHealth from = ReplicaHealth::kHealthy;
  ReplicaHealth to = ReplicaHealth::kHealthy;
  std::string cause;  // "crash", "hang", "heartbeat", "scrub"
};

class ReplicaHealthMonitor {
 public:
  /// `readmit_scrub_cycles` is the simulated cost of the
  /// scrub-and-readmit pass a replica pays between kRecovering and
  /// kHealthy (the serving planner passes its weight-scrub charge).
  ReplicaHealthMonitor(int replicas, std::int64_t readmit_scrub_cycles);

  /// Apply every scheduled transition at or before `cycle`.  Clamped
  /// monotone: a caller re-dispatching at an earlier ready cycle is a
  /// no-op, never a rewind.
  void AdvanceTo(std::int64_t cycle);

  /// Apply every scheduled transition regardless of cycle (drain-time
  /// flush so recovery episodes after the last dispatch still appear in
  /// the log).
  void Flush();

  /// The replica died at `cycle`: kDown immediately (the failed
  /// dispatch is the detection), kRecovering after `down_cycles`,
  /// kHealthy after the readmit scrub.
  void ReportCrash(int replica, std::int64_t cycle,
                   std::int64_t down_cycles);

  /// The replica is unresponsive over [from, until): heartbeats on the
  /// grid inside the window go missing (kSuspect, then kDown if enough
  /// miss); the first heartbeat at or after `until` starts recovery.
  void ReportUnresponsive(int replica, std::int64_t from,
                          std::int64_t until);

  ReplicaHealth state(int replica) const;
  /// Only kHealthy replicas take new traffic.
  bool Routable(int replica) const {
    return state(replica) == ReplicaHealth::kHealthy;
  }
  int replicas() const { return static_cast<int>(states_.size()); }
  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

  /// State at an arbitrary cycle, replayed from the transition log
  /// (Flush first for full coverage) — the health time-series sampler.
  ReplicaHealth StateAt(int replica, std::int64_t cycle) const;

 private:
  struct Pending {
    std::int64_t cycle = 0;
    ReplicaHealth to = ReplicaHealth::kHealthy;
    const char* cause = "";
  };
  struct State {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    std::vector<Pending> pending;  // sorted by cycle
  };

  void Transition(int replica, std::int64_t cycle, ReplicaHealth to,
                  const char* cause);
  void Schedule(State& state, std::int64_t cycle, ReplicaHealth to,
                const char* cause);
  /// Schedule the kRecovering -> kHealthy chain starting at
  /// `down_until`.
  void ScheduleReadmission(State& state, std::int64_t down_until,
                           const char* cause);

  std::int64_t readmit_scrub_cycles_;
  std::vector<State> states_;
  std::vector<HealthTransition> transitions_;
  std::int64_t clock_ = 0;  // high-water mark of AdvanceTo
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

constexpr const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

struct BreakerOptions {
  bool enabled = false;
  /// Consecutive failures that open the breaker.
  int failure_threshold = 3;
  /// Cycles the breaker stays open before admitting a half-open trial.
  std::int64_t cooldown_cycles = std::int64_t{1} << 14;
};

/// Parse a CLI breaker spec: "failures=N,cooldown=M" (either key may be
/// omitted; the result is enabled).  N lies in [1, INT_MAX], M in
/// [1, 2^63-1]; unknown keys or malformed or out-of-range values throw
/// db::Error.
BreakerOptions ParseBreakerSpec(const std::string& spec);

class CircuitBreaker {
 public:
  explicit CircuitBreaker(int replicas, BreakerOptions options = {});

  /// True when a dispatch to `replica` may proceed at `cycle` (closed
  /// or half-open; in the server's single-threaded planner exactly one
  /// trial is in flight while half-open).  Always true when disabled.
  bool Allows(int replica, std::int64_t cycle) const;

  void RecordFailure(int replica, std::int64_t cycle);
  void RecordSuccess(int replica, std::int64_t cycle);

  BreakerState StateAt(int replica, std::int64_t cycle) const;
  std::int64_t opens() const { return opens_; }
  const BreakerOptions& options() const { return options_; }

 private:
  struct State {
    int consecutive_failures = 0;
    bool opened = false;           // an open/half-open episode is live
    std::int64_t open_until = 0;   // cooldown end of the latest open
  };

  BreakerOptions options_;
  std::vector<State> states_;
  std::int64_t opens_ = 0;  // open + re-open transitions
};

}  // namespace db::cluster
