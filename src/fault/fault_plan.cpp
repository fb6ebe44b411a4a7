#include "fault/fault_plan.h"

#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace db::fault {
namespace {

/// Regions whose name carries the given prefix ("weights:" / "blob:").
std::vector<const MemoryRegion*> RegionsWithPrefix(
    const MemoryMap& map, std::string_view prefix) {
  std::vector<const MemoryRegion*> out;
  for (const MemoryRegion& region : map.regions())
    if (StartsWith(region.name, prefix) && region.bytes > 0)
      out.push_back(&region);
  return out;
}

/// One uniformly random byte address inside one of `regions`, weighted
/// by region size so every byte is equally likely.
std::int64_t RandomAddr(Rng& rng,
                        const std::vector<const MemoryRegion*>& regions,
                        std::int64_t total_bytes) {
  std::int64_t offset =
      static_cast<std::int64_t>(rng.UniformInt(
          static_cast<std::uint64_t>(total_bytes)));
  for (const MemoryRegion* region : regions) {
    if (offset < region->bytes) return region->base + offset;
    offset -= region->bytes;
  }
  DB_CHECK_MSG(false, "region weights do not cover total_bytes");
  return 0;
}

std::int64_t TotalBytes(const std::vector<const MemoryRegion*>& regions) {
  std::int64_t total = 0;
  for (const MemoryRegion* region : regions) total += region->bytes;
  return total;
}

// Every event is held in memory (in the plan and in its replica's
// slice), so each count is bounded: at most 2^20 events per kind.
constexpr std::int64_t kMaxCount = std::int64_t{1} << 20;
constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();

using Key = SpecKey<FaultCampaignSpec>;
constexpr Key kCampaignKeys[] = {
    {"seed", &FaultCampaignSpec::seed, 0, kMaxInt64},
    {"flips", &FaultCampaignSpec::weight_flips, 0, kMaxCount},
    {"blob-flips", &FaultCampaignSpec::blob_flips, 0, kMaxCount},
    {"transients", &FaultCampaignSpec::transients, 0, kMaxCount},
    {"stalls", &FaultCampaignSpec::stalls, 0, kMaxCount},
    {"stall-cycles", &FaultCampaignSpec::stall_cycles, 1, kMaxInt64},
    {"crashes", &FaultCampaignSpec::crashes, 0, kMaxCount},
    {"hangs", &FaultCampaignSpec::hangs, 0, kMaxCount},
    {"slow-replicas", &FaultCampaignSpec::slow_replicas, 0, kMaxCount},
    {"route-fails", &FaultCampaignSpec::route_fails, 0, kMaxCount},
    {"crash-down-cycles", &FaultCampaignSpec::crash_down_cycles, 1,
     kMaxInt64},
    {"hang-cycles", &FaultCampaignSpec::hang_cycles, 1, kMaxInt64},
    {"slow-factor", &FaultCampaignSpec::slow_factor, 2, 1024},
    {"slow-services", &FaultCampaignSpec::slow_services, 1, kMaxInt64},
    {"span", &FaultCampaignSpec::invocation_span, 1, kMaxInt64},
};

}  // namespace

FaultCampaignSpec ParseFaultCampaign(const std::string& spec) {
  FaultCampaignSpec campaign;
  ReadSpec(spec, "fault spec", kCampaignKeys, &campaign);
  return campaign;
}

FaultPlan FaultPlan::Generate(const FaultCampaignSpec& spec,
                              const MemoryMap& map) {
  DB_CHECK_MSG(spec.workers >= 1, "campaign needs at least one replica");
  DB_CHECK_MSG(spec.invocation_span >= 1,
               "campaign needs a positive invocation span");
  FaultPlan plan;
  plan.seed = spec.seed;
  Rng rng(spec.seed);

  auto coordinate = [&](FaultEvent& event) {
    event.replica = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(spec.workers)));
    event.invocation = static_cast<std::int64_t>(rng.UniformInt(
        static_cast<std::uint64_t>(spec.invocation_span)));
  };

  const auto weight_regions = RegionsWithPrefix(map, "weights:");
  const auto blob_regions = RegionsWithPrefix(map, "blob:");
  const std::int64_t weight_bytes = TotalBytes(weight_regions);
  const std::int64_t blob_bytes = TotalBytes(blob_regions);
  if (spec.weight_flips > 0)
    DB_CHECK_MSG(weight_bytes > 0, "campaign flips need weight regions");
  if (spec.blob_flips > 0)
    DB_CHECK_MSG(blob_bytes > 0, "campaign blob flips need blob regions");

  const std::int64_t flips =
      std::int64_t{spec.weight_flips} + spec.blob_flips;
  for (std::int64_t i = 0; i < flips; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kBitFlip;
    event.weight_region = i < spec.weight_flips;
    coordinate(event);
    event.addr = event.weight_region
                     ? RandomAddr(rng, weight_regions, weight_bytes)
                     : RandomAddr(rng, blob_regions, blob_bytes);
    event.bit = static_cast<int>(rng.UniformInt(8));
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.transients; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kTransient;
    coordinate(event);
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.stalls; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kStall;
    coordinate(event);
    event.stall_cycles = spec.stall_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.crashes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kCrash;
    coordinate(event);
    event.down_cycles = spec.crash_down_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.hangs; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kHang;
    coordinate(event);
    event.stall_cycles = spec.hang_cycles;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.slow_replicas; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kSlow;
    coordinate(event);
    event.slow_factor = spec.slow_factor;
    event.slow_services = spec.slow_services;
    plan.events.push_back(event);
  }
  for (int i = 0; i < spec.route_fails; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kRouteFail;
    coordinate(event);
    plan.events.push_back(event);
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "fault plan (seed " << seed << ", " << events.size()
     << " events)\n";
  for (const FaultEvent& event : events) {
    os << StrFormat("  w%d inv%lld %-9s", event.replica,
                    static_cast<long long>(event.invocation),
                    FaultKindName(event.kind));
    switch (event.kind) {
      case FaultKind::kBitFlip:
        os << StrFormat(" addr=%lld bit=%d %s",
                        static_cast<long long>(event.addr), event.bit,
                        event.weight_region ? "weights" : "blob");
        break;
      case FaultKind::kTransient:
        break;
      case FaultKind::kStall:
      case FaultKind::kHang:
        os << StrFormat(" cycles=%lld",
                        static_cast<long long>(event.stall_cycles));
        break;
      case FaultKind::kCrash:
        os << StrFormat(" down=%lld",
                        static_cast<long long>(event.down_cycles));
        break;
      case FaultKind::kSlow:
        os << StrFormat(" factor=%lld services=%lld",
                        static_cast<long long>(event.slow_factor),
                        static_cast<long long>(event.slow_services));
        break;
      case FaultKind::kRouteFail:
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace db::fault
