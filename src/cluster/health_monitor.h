// Replica health and failure isolation for the replicated accelerators
// — the cluster-resilience substrate of the serving planner.
//
// Health is an output of the serving plan, never an input to it: the
// planner routes on its timeline alone (a crashed replica's free cycle
// already carries its down time and readmit scrub, a hung one's the end
// of the hang), and once the last batch is placed, HealthLog turns the
// plan's crash and hang windows into the per-replica transition log
//
//   kHealthy -> kSuspect -> kDown -> kRecovering -> kHealthy
//
// in *simulated time*: a hang is observed as missed heartbeats on a
// simulated grid and its recovery at the first heartbeat after the
// window, a crash is kDown at once, and a replica that went down pays a
// scrub-and-readmit pass before it is healthy again.  The log — and
// everything read from it (spans, metrics, the health time-series) — is
// a pure function of the plan.
//
// CircuitBreaker is the per-replica closed -> open -> half-open machine
// that owns dispatch failures (route failures and crashes):
// `failure_threshold` consecutive failures open the breaker for
// `cooldown_cycles`; after the cooldown it is half-open and one trial
// dispatch decides between closing it and re-opening it.  State is
// derived from the recorded (failure cycle, cooldown) pairs, so queries
// are pure.  It is the one mask the planner routes on.
//
// Threading contract: CircuitBreaker is single-writer (the serving
// planner, which runs on one thread); HealthLog and HealthAt are pure.
#pragma once

#include <cstdint>
#include <span>
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

/// One state change of one replica.
struct HealthTransition {
  int replica = 0;
  std::int64_t cycle = 0;
  ReplicaHealth from = ReplicaHealth::kHealthy;
  ReplicaHealth to = ReplicaHealth::kHealthy;
  std::string cause;  // "crash", "hang", "heartbeat", "scrub"
};

/// A window in which a replica served nothing, read off the serving
/// plan's timeline: a crash at `from` with readmission at `until`, or a
/// hang over [from, until).
struct Outage {
  int replica = 0;
  std::int64_t from = 0;
  std::int64_t until = 0;
  bool crash = false;
};

/// The health transition log of `replicas` replicas given their
/// outages, each replica's in timeline order.  A hang's heartbeats on
/// the grid inside the window go missing (kSuspect, then kDown if
/// enough miss) and the first heartbeat at or after its end starts
/// recovery; a crash is kDown at once and kRecovering at readmission;
/// a replica that went down is kHealthy `readmit_scrub_cycles` after
/// kRecovering.  A crash supersedes every transition the replica still
/// had scheduled after it.  Sorted by cycle, ties by replica.
std::vector<HealthTransition> HealthLog(int replicas,
                                        std::span<const Outage> outages,
                                        std::int64_t readmit_scrub_cycles);

/// `replica`'s state at `cycle`, replayed from `log` — the health
/// time-series sampler.
ReplicaHealth HealthAt(std::span<const HealthTransition> log, int replica,
                       std::int64_t cycle);

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
