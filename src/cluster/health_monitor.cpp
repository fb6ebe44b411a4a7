#include "cluster/health_monitor.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/strings.h"

namespace db::cluster {

namespace {

/// A transition one outage schedules, before same-state ones drop.
struct Scheduled {
  std::int64_t cycle = 0;
  ReplicaHealth to = ReplicaHealth::kHealthy;
  const char* cause = "";
};

/// Insert keeping `schedule` sorted by cycle, stable for ties, so the
/// kDown -> kRecovering -> kHealthy chain stays in order even with a
/// zero-length window between two links.
void Schedule(std::vector<Scheduled>& schedule, std::int64_t cycle,
              ReplicaHealth to, const char* cause) {
  auto it = std::upper_bound(
      schedule.begin(), schedule.end(), cycle,
      [](std::int64_t c, const Scheduled& s) { return c < s.cycle; });
  schedule.insert(it, Scheduled{cycle, to, cause});
}

/// What one hang over [from, until) schedules: missed heartbeats on the
/// grid inside the window, recovery at the first heartbeat at or after
/// its end.  A hang does not reboot the card, so its DRAM is intact and
/// recovery pays no scrub, whatever the misses reached.
void ScheduleHang(std::vector<Scheduled>& schedule, std::int64_t from,
                  std::int64_t until) {
  const std::int64_t hb = kHeartbeatIntervalCycles;
  // The first tick the hang can miss is the first strictly after `from`.
  int misses = 0;
  for (std::int64_t tick = (from / hb + 1) * hb; tick < until; tick += hb) {
    ++misses;
    if (misses == kSuspectAfterMisses)
      Schedule(schedule, tick, ReplicaHealth::kSuspect, "hang");
    if (misses == kDownAfterMisses) {
      Schedule(schedule, tick, ReplicaHealth::kDown, "hang");
      break;
    }
  }
  if (misses == 0) return;  // shorter than one heartbeat: unobserved
  Schedule(schedule, ((until + hb - 1) / hb) * hb, ReplicaHealth::kHealthy,
           "heartbeat");
}

}  // namespace

std::vector<HealthTransition> HealthLog(int replicas,
                                        std::span<const Outage> outages,
                                        std::int64_t readmit_scrub_cycles) {
  DB_CHECK_MSG(replicas >= 1, "health log needs at least one replica");
  DB_CHECK_MSG(readmit_scrub_cycles >= 0,
               "readmit scrub charge must be >= 0 cycles");
  std::vector<HealthTransition> log;
  for (int r = 0; r < replicas; ++r) {
    std::vector<Scheduled> schedule;
    std::int64_t last_until = 0;
    for (const Outage& outage : outages) {
      DB_CHECK(outage.replica >= 0 && outage.replica < replicas);
      if (outage.replica != r) continue;
      DB_CHECK_MSG(outage.from >= last_until && outage.until > outage.from,
                   "outages must be non-empty and in timeline order");
      last_until = outage.until;
      if (!outage.crash) {
        ScheduleHang(schedule, outage.from, outage.until);
        continue;
      }
      // A dead replica's pending hang recovery never happens.
      while (!schedule.empty() && schedule.back().cycle > outage.from)
        schedule.pop_back();
      // The rebooted card pays the scrub-and-readmit pass.
      schedule.push_back({outage.from, ReplicaHealth::kDown, "crash"});
      Schedule(schedule, outage.until, ReplicaHealth::kRecovering, "crash");
      Schedule(schedule, outage.until + readmit_scrub_cycles,
               ReplicaHealth::kHealthy, "scrub");
    }
    ReplicaHealth health = ReplicaHealth::kHealthy;
    for (const Scheduled& s : schedule) {
      if (s.to == health) continue;
      log.push_back(HealthTransition{r, s.cycle, health, s.to, s.cause});
      health = s.to;
    }
  }
  std::stable_sort(log.begin(), log.end(),
                   [](const HealthTransition& a, const HealthTransition& b) {
                     return a.cycle < b.cycle;
                   });
  return log;
}

ReplicaHealth HealthAt(std::span<const HealthTransition> log, int replica,
                       std::int64_t cycle) {
  ReplicaHealth health = ReplicaHealth::kHealthy;
  for (const HealthTransition& t : log)
    if (t.replica == replica && t.cycle <= cycle) health = t.to;
  return health;
}

BreakerOptions ParseBreakerSpec(const std::string& spec) {
  using Key = SpecKey<BreakerOptions>;
  static constexpr Key kKeys[] = {
      {"failures", &BreakerOptions::failure_threshold, 1,
       std::numeric_limits<int>::max()},
      {"cooldown", &BreakerOptions::cooldown_cycles, 1,
       kMaxCooldownCycles},
  };
  BreakerOptions options;
  options.enabled = true;
  ReadSpec(spec, "breaker spec", kKeys, &options);
  return options;
}

CircuitBreaker::CircuitBreaker(int replicas, BreakerOptions options)
    : options_(options) {
  DB_CHECK_MSG(replicas >= 1, "breaker needs at least one replica");
  if (options_.enabled) {
    DB_CHECK_MSG(options_.failure_threshold >= 1,
                 "breaker failure threshold must be >= 1");
    DB_CHECK_MSG(options_.cooldown_cycles >= 1,
                 "breaker cooldown must be >= 1 cycle");
  }
  states_.resize(static_cast<std::size_t>(replicas));
}

std::int64_t CircuitBreaker::RecordFailure(int replica,
                                           std::int64_t cycle) {
  if (!options_.enabled) return 0;
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(states_.size()));
  State& state = states_[static_cast<std::size_t>(replica)];
  if (state.opened) {
    // A failure inside the cooldown leaves the episode as-is; a failed
    // half-open trial re-opens with a fresh cooldown.
    if (cycle < state.open_until) return 0;
  } else if (++state.consecutive_failures < options_.failure_threshold) {
    return 0;
  }
  state.opened = true;
  state.open_until = cycle + options_.cooldown_cycles;
  state.consecutive_failures = 0;
  ++opens_;
  return state.open_until;
}

void CircuitBreaker::RecordSuccess(int replica, std::int64_t cycle) {
  if (!options_.enabled) return;
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(states_.size()));
  State& state = states_[static_cast<std::size_t>(replica)];
  state.consecutive_failures = 0;
  if (state.opened && cycle >= state.open_until)
    state.opened = false;  // the half-open trial succeeded
}

}  // namespace db::cluster
