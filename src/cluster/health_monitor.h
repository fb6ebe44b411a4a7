// Replica health and failure isolation for the replicated accelerators
// — the cluster-resilience substrate of the serving planner.
//
// Health is an output of the serving plan, never an input to it: the
// planner routes on its timeline alone (a crashed replica's free cycle
// already carries its down time and readmit scrub, a hung one's the end
// of the hang, one with an open breaker the end of the cooldown), and
// once the last batch is placed, HealthLog turns the
// plan's crash and hang windows into the per-replica transition log
//
//   kHealthy -> kSuspect -> kDown -> kRecovering -> kHealthy
//
// in *simulated time*: a hang is observed as missed heartbeats on a
// simulated grid and its recovery at the first heartbeat after the
// window; a crash is kDown at once, and the rebooted card pays a
// scrub-and-readmit pass before it is healthy again.  The log — and
// everything read from it (spans, metrics, the health time-series) — is
// a pure function of the plan.
//
// CircuitBreaker is the per-replica closed -> open -> half-open machine
// that owns dispatch failures (route failures and crashes):
// `failure_threshold` consecutive failures open the breaker for
// `cooldown_cycles`; after the cooldown it is half-open and one trial
// dispatch decides between closing it and re-opening it.  It is not a
// mask: RecordFailure returns the cooldown end of each open, and the
// planner holds the replica's free cycle until then, as it does for a
// crash or a hang.
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
/// enough miss) and it is kHealthy again at the first heartbeat at or
/// after its end; a crash is kDown at once, kRecovering at readmission
/// and kHealthy `readmit_scrub_cycles` later.  A crash supersedes every
/// transition the replica still had scheduled after it.  Sorted by
/// cycle, ties by replica.
std::vector<HealthTransition> HealthLog(int replicas,
                                        std::span<const Outage> outages,
                                        std::int64_t readmit_scrub_cycles);

/// `replica`'s state at `cycle`, replayed from `log` — the health
/// time-series sampler.
ReplicaHealth HealthAt(std::span<const HealthTransition> log, int replica,
                       std::int64_t cycle);

/// The largest breaker cooldown.  A cooldown is a term of the replica's
/// free cycle, so the bound keeps the planner's cycle arithmetic inside
/// int64 however many times the breaker re-opens.
constexpr std::int64_t kMaxCooldownCycles = std::int64_t{1} << 40;

struct BreakerOptions {
  bool enabled = false;
  /// Consecutive failures that open the breaker.
  int failure_threshold = 3;
  /// Cycles the breaker stays open before admitting a half-open trial.
  std::int64_t cooldown_cycles = std::int64_t{1} << 14;
};

/// Parse a CLI breaker spec: "failures=N,cooldown=M" (either key may be
/// omitted; the result is enabled).  N lies in [1, INT_MAX], M in
/// [1, kMaxCooldownCycles]; unknown keys or malformed or out-of-range
/// values throw db::Error.
BreakerOptions ParseBreakerSpec(const std::string& spec);

class CircuitBreaker {
 public:
  explicit CircuitBreaker(int replicas, BreakerOptions options = {});

  /// Record a dispatch failure of `replica` at `cycle`.  Returns the
  /// cooldown end when the failure opens the breaker (the threshold is
  /// reached) or re-opens it (a failed half-open trial, at or after the
  /// cooldown end); else 0, and always 0 when disabled.
  std::int64_t RecordFailure(int replica, std::int64_t cycle);
  /// A dispatch `replica` accepted at `cycle`: clears the failure count,
  /// and closes the breaker once its cooldown has ended.
  void RecordSuccess(int replica, std::int64_t cycle);

  std::int64_t opens() const { return opens_; }

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
