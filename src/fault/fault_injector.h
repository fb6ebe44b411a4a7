// FaultInjector: hands a FaultPlan's events to the serving planner, one
// slice per replica, and the integrity primitives (weight-region
// checksum, scrub-and-reload) the replicas use to survive them.
//
// The plan is partitioned per replica once, at construction.  The
// planner keeps one cursor per slice and fires every event whose
// `invocation` coordinate has been reached, so the firing order is a
// pure function of the plan and the (deterministic) schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/memory_image.h"
#include "fault/fault_plan.h"

namespace db::fault {

/// What one replica did about one fault (injection or recovery), with
/// the simulated-cycle window it charged.  The server publishes these
/// as "fault"-category spans and fault.* metrics at drain time.
struct FaultRecord {
  FaultKind kind = FaultKind::kBitFlip;
  bool recovery = false;  // true for scrub/retry windows, false at injection
  int replica = 0;
  std::int64_t invocation = 0;
  std::int64_t request_id = -1;
  std::int64_t start_cycle = 0;
  std::int64_t end_cycle = 0;
  std::int64_t detail = 0;  // flip addr / stall or backoff cycles / attempt
};

class FaultInjector {
 public:
  /// Partition `plan` across `replicas` replica slices, each sorted by
  /// invocation (stable, so equal coordinates keep plan order).
  /// Events naming a replica outside [0, replicas) throw db::Error.
  FaultInjector(const FaultPlan& plan, int replicas);

  /// Replica `r`'s datapath events (kBitFlip / kTransient / kStall),
  /// sorted by invocation.  Cluster-level kinds never appear here.
  const std::vector<FaultEvent>& ForReplica(int replica) const;

  /// Replica `r`'s cluster-level events (kCrash / kHang / kSlow /
  /// kRouteFail), sorted by invocation.  The `invocation` coordinate of
  /// a cluster event counts *scheduled* services on the replica — the
  /// dispatch-side view — not attempted services; the planner fires
  /// each event at the dispatch whose invocation window reaches it.
  const std::vector<FaultEvent>& ClusterForReplica(int replica) const;

  /// True if `replica`'s slice contains any weight-region bit flip — the
  /// only fault kind that requires per-invocation integrity checks.
  bool HasWeightFlips(int replica) const;

  std::size_t total_events() const { return total_events_; }
  std::size_t cluster_events() const { return cluster_events_; }

 private:
  std::vector<std::vector<FaultEvent>> per_replica_;
  std::vector<std::vector<FaultEvent>> per_replica_cluster_;
  std::vector<bool> has_weight_flips_;
  std::size_t total_events_ = 0;
  std::size_t cluster_events_ = 0;
};

/// FNV-1a over every weight region's bytes, in map order — the scrub
/// engine's integrity reference.  Blob/activation regions are excluded:
/// they are rewritten on every invocation, so corruption there is
/// overwritten before anything reads it.
std::uint64_t WeightChecksum(const MemoryImage& image,
                             const MemoryMap& map);

/// Scrub-and-reload: re-copy every weight region of `image` from the
/// provisioned `golden` image.  Returns the number of bytes copied
/// (the basis for the recovery-cycle charge).
std::int64_t ScrubWeights(MemoryImage& image, const MemoryImage& golden,
                          const MemoryMap& map);

/// Total bytes across the map's weight regions.
std::int64_t WeightRegionBytes(const MemoryMap& map);

}  // namespace db::fault
