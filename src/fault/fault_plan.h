// Deterministic fault planning: a FaultPlan is a fully materialised,
// seeded list of faults to inject into a serving run — DRAM bit flips
// in the weight/activation regions of a replica's MemoryImage, transient
// replica invocation failures, and injected replica stalls measured in
// simulated cycles.
//
// Determinism contract: a plan is a pure function of its campaign spec
// (seed + counts) and the design's memory map.  Every fault is bound to
// a (replica, invocation) coordinate — the injector fires it right
// before that replica's invocation-th request service — so the same plan
// against the same request stream always perturbs the same state at the
// same simulated point, regardless of thread timing.  That is what lets
// a fault campaign assert bit-identical outputs and byte-stable metrics
// across runs (ISSUE 3 acceptance).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/memory_map.h"

namespace db::fault {

enum class FaultKind {
  kBitFlip,    // flip one DRAM bit of the replica's private image
  kTransient,  // one invocation attempt fails and must be retried
  kStall,      // the replica stalls for `stall_cycles` simulated cycles
  // Cluster-level kinds (see IsClusterFault): consumed by the serving
  // planner at dispatch, never by a replica's datapath.
  kCrash,      // the replica dies; in-flight work re-dispatches, the
               // replica readmits after `down_cycles` plus a scrub
  kHang,       // unresponsive for `stall_cycles`; heartbeats go missing
  kSlow,       // the next `slow_services` invocations cost
               // `slow_factor`x their normal cycles
  kRouteFail,  // one routing attempt to the replica fails transiently
};

constexpr const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitFlip: return "bit_flip";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kStall: return "stall";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kHang: return "hang";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kRouteFail: return "route_fail";
  }
  return "unknown";
}

/// Cluster faults perturb replica availability (crash / hang / slow /
/// route failure) instead of a replica's datapath state; the injector
/// deals them into per-replica cluster slices the planner consumes at
/// dispatch.
constexpr bool IsClusterFault(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kHang ||
         kind == FaultKind::kSlow || kind == FaultKind::kRouteFail;
}

/// One scheduled fault.  `invocation` is a replica-local request-service
/// index (0-based, counting scheduled services, not retry attempts);
/// the injector fires every event with a matching coordinate before
/// that service begins.
struct FaultEvent {
  FaultKind kind = FaultKind::kBitFlip;
  int replica = 0;
  std::int64_t invocation = 0;
  std::int64_t addr = 0;          // kBitFlip: absolute image byte address
  int bit = 0;                    // kBitFlip: bit index in [0, 8)
  bool weight_region = true;      // kBitFlip: weight vs activation region
  std::int64_t stall_cycles = 0;  // kStall / kHang: simulated cycles lost
  std::int64_t down_cycles = 0;   // kCrash: cycles dead before readmission
  std::int64_t slow_factor = 1;   // kSlow: service-cycle multiplier
  std::int64_t slow_services = 0; // kSlow: invocations the factor covers
};

/// Knobs for generating a seeded random campaign.
struct FaultCampaignSpec {
  std::uint64_t seed = 1;
  int weight_flips = 0;   // bit flips across the weight regions
  int blob_flips = 0;     // bit flips across activation/blob regions
  int transients = 0;     // transient invocation failures
  int stalls = 0;         // injected replica stalls
  std::int64_t stall_cycles = 256;  // duration of each stall
  // Cluster-level event counts (replica crash / hang / slow-replica /
  // transient route failure) and their shapes.
  int crashes = 0;
  int hangs = 0;
  int slow_replicas = 0;
  int route_fails = 0;
  std::int64_t crash_down_cycles = 4096;  // dead window before readmission
  std::int64_t hang_cycles = 2048;        // unresponsive window per hang
  std::int64_t slow_factor = 4;           // service-cycle multiplier
  std::int64_t slow_services = 8;         // invocations the factor covers
  /// Events spread uniformly over replica-local invocations
  /// [0, invocation_span); keep at or below requests/replicas so every
  /// event actually fires.
  std::int64_t invocation_span = 16;
  int workers = 1;  // the replica count the events are spread over
};

/// Parse a CLI campaign spec:
///   "seed=7,flips=100,blob-flips=4,transients=5,stalls=2,
///    stall-cycles=512,crashes=1,hangs=2,slow-replicas=1,
///    route-fails=3,crash-down-cycles=4096,hang-cycles=2048,
///    slow-factor=4,slow-services=8,span=32"
/// Counts lie in [0, 2^20] (every event is held in memory), cycle
/// shapes and the span in [1, 2^63-1], slow-factor in [2, 1024], the
/// seed in [0, 2^63-1].  Unknown keys or malformed or out-of-range
/// values throw db::Error.  `workers` is not part of the spec; the
/// caller sets it from the serving options.
FaultCampaignSpec ParseFaultCampaign(const std::string& spec);

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::string ToString() const;

  /// Materialise a campaign into concrete events: flip addresses drawn
  /// uniformly over the map's weight (or blob) region bytes, replicas
  /// and invocations drawn uniformly over their ranges — all from one
  /// db::Rng(seed), so equal (spec, map) pairs yield equal plans.
  static FaultPlan Generate(const FaultCampaignSpec& spec,
                            const MemoryMap& map);
};

}  // namespace db::fault
