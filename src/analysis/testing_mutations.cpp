#include "analysis/testing_mutations.h"

#include <algorithm>

#include "analysis/verifier.h"
#include "common/error.h"

namespace db::analysis {

std::vector<std::string> BreakableRules() {
  return {kRuleAguBounds,     kRuleMemLayout,      kRuleMemCapacity,
          kRuleSchedHazard,   kRuleFoldCoverage,   kRuleBufferCapacity,
          kRuleConnPorts,     kRuleLutDomain,      kRuleResBudget};
}

void BreakRule(AcceleratorDesign& design, const std::string& rule) {
  if (rule == kRuleAguBounds) {
    for (AguPattern& p : design.agu_program.patterns) {
      if (p.role != AguRole::kMain) continue;
      // One extra outer row marches the sweep past its region's end.
      p.y_length += 1;
      return;
    }
    DB_THROW("design has no main-AGU pattern to break");
  }
  if (rule == kRuleMemLayout) {
    DB_CHECK_MSG(!design.memory_map.regions().empty(), "no regions");
    // Grow the first region into its successor (overlap) without moving
    // any base, so every AGU pattern still resolves in its own region.
    std::vector<MemoryRegion> regions = design.memory_map.regions();
    const std::int64_t align = std::max<std::int64_t>(
        design.config.memory_port_elems * design.config.ElementBytes(), 1);
    if (regions.size() > 1)
      regions[0].bytes += align;
    else
      regions[0].bytes += 1;  // single region: break the alignment instead
    design.memory_map = MemoryMap::FromRegions(std::move(regions));
    return;
  }
  if (rule == kRuleMemCapacity) {
    // A board one byte too small for the map.
    design.config.dram_bytes = design.memory_map.total_bytes() - 1;
    return;
  }
  if (rule == kRuleSchedHazard) {
    DB_CHECK_MSG(!design.schedule.entries.empty(), "empty schedule");
    // Replay the first layer's FSM state right after itself: the layer
    // executes twice, re-arms its patterns, and breaks the producer
    // chain.
    auto& entries = design.schedule.entries;
    const ScheduleEntry first = entries.front();
    entries.insert(entries.begin() + 1, first);
    return;
  }
  if (rule == kRuleFoldCoverage) {
    DB_CHECK_MSG(!design.fold_plan.folds.empty(), "empty fold plan");
    for (LayerFold& fold : design.fold_plan.folds) {
      if (fold.pool != LanePool::kMac) continue;
      // Drop one segment: the last lanes_used units never compute.
      fold.parallel_units += fold.lanes_used;
      fold.total_ops = fold.parallel_units * fold.unit_work;
      return;
    }
    design.fold_plan.folds.front().segments += 1;
    return;
  }
  if (rule == kRuleBufferCapacity) {
    DB_CHECK_MSG(!design.buffer_plan.entries.empty(), "empty buffer plan");
    // Grow the ping slot past the end of the physical buffer.
    BufferPlanEntry& e = design.buffer_plan.entries.front();
    e.ping.bytes = design.buffer_plan.data_buffer_bytes + 1;
    return;
  }
  if (rule == kRuleConnPorts) {
    DB_CHECK_MSG(!design.schedule.entries.empty(), "empty schedule");
    // A shift as wide as the datapath empties every word.
    design.schedule.entries.front().shift =
        design.config.format.total_bits();
    return;
  }
  if (rule == kRuleLutDomain) {
    DB_CHECK_MSG(!design.lut_specs.empty(),
                 "design approximates no function");
    // Collapse the input domain: the table covers nothing.
    ApproxLutSpec& spec = design.lut_specs.front();
    spec.in_max = spec.in_min;
    return;
  }
  if (rule == kRuleResBudget) {
    DB_CHECK_MSG(!design.blocks.empty(), "empty block inventory");
    // Stale accounting: the recorded total no longer re-tallies.
    design.resources.total.lut += 1;
    return;
  }
  DB_THROW("unknown verifier rule '" << rule << "'");
}

}  // namespace db::analysis
