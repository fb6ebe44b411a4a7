#include "fault/fault_injector.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace db::fault {

FaultInjector::FaultInjector(const FaultPlan& plan, int replicas) {
  DB_CHECK_MSG(replicas >= 1, "injector needs at least one replica");
  per_replica_.resize(static_cast<std::size_t>(replicas));
  per_replica_cluster_.resize(static_cast<std::size_t>(replicas));
  has_weight_flips_.assign(static_cast<std::size_t>(replicas), false);
  for (const FaultEvent& event : plan.events) {
    if (event.replica < 0 || event.replica >= replicas)
      DB_THROW("fault plan targets replica " << event.replica
               << " but the server has " << replicas);
    if (event.kind == FaultKind::kBitFlip)
      DB_CHECK_MSG(event.bit >= 0 && event.bit < 8,
                   "bit flip index out of range");
    if (event.kind == FaultKind::kStall ||
        event.kind == FaultKind::kHang)
      DB_CHECK_MSG(event.stall_cycles > 0,
                   "stall/hang events need positive cycles");
    if (event.kind == FaultKind::kCrash)
      DB_CHECK_MSG(event.down_cycles > 0,
                   "crash events need a positive down window");
    if (event.kind == FaultKind::kSlow)
      DB_CHECK_MSG(event.slow_factor >= 2 && event.slow_services > 0,
                   "slow events need factor >= 2 and services >= 1");
    const auto slot = static_cast<std::size_t>(event.replica);
    if (IsClusterFault(event.kind)) {
      per_replica_cluster_[slot].push_back(event);
      ++cluster_events_;
    } else {
      per_replica_[slot].push_back(event);
      if (event.kind == FaultKind::kBitFlip && event.weight_region)
        has_weight_flips_[slot] = true;
    }
    ++total_events_;
  }
  const auto by_invocation = [](const FaultEvent& a, const FaultEvent& b) {
    return a.invocation < b.invocation;
  };
  for (auto& events : per_replica_)
    std::stable_sort(events.begin(), events.end(), by_invocation);
  for (auto& events : per_replica_cluster_)
    std::stable_sort(events.begin(), events.end(), by_invocation);
}

const std::vector<FaultEvent>& FaultInjector::ForReplica(int replica) const {
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(per_replica_.size()));
  return per_replica_[static_cast<std::size_t>(replica)];
}

const std::vector<FaultEvent>& FaultInjector::ClusterForReplica(
    int replica) const {
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(per_replica_cluster_.size()));
  return per_replica_cluster_[static_cast<std::size_t>(replica)];
}

bool FaultInjector::HasWeightFlips(int replica) const {
  DB_CHECK(replica >= 0 &&
           replica < static_cast<int>(has_weight_flips_.size()));
  return has_weight_flips_[static_cast<std::size_t>(replica)];
}

std::uint64_t WeightChecksum(const MemoryImage& image,
                             const MemoryMap& map) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  const std::uint8_t* bytes = image.data();
  for (const MemoryRegion& region : map.regions()) {
    if (!StartsWith(region.name, "weights:")) continue;
    DB_CHECK_MSG(region.end() <= image.size(),
                 "weight region outside the image");
    for (std::int64_t addr = region.base; addr < region.end(); ++addr) {
      hash ^= bytes[static_cast<std::size_t>(addr)];
      hash *= 1099511628211ull;  // FNV prime
    }
  }
  return hash;
}

std::int64_t ScrubWeights(MemoryImage& image, const MemoryImage& golden,
                          const MemoryMap& map) {
  std::int64_t copied = 0;
  for (const MemoryRegion& region : map.regions()) {
    if (!StartsWith(region.name, "weights:")) continue;
    image.CopyRange(golden, region.base, region.bytes);
    copied += region.bytes;
  }
  return copied;
}

std::int64_t WeightRegionBytes(const MemoryMap& map) {
  std::int64_t total = 0;
  for (const MemoryRegion& region : map.regions())
    if (StartsWith(region.name, "weights:")) total += region.bytes;
  return total;
}

}  // namespace db::fault
