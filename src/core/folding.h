// Temporal and spatial folding (paper §3.3).
//
// Temporal folding maps *different layers* onto the one shared set of
// building blocks across time; spatial folding splits a single layer
// whose parallelism exceeds the datapath into segments that share the
// lanes in consecutive time slots.  The plan produced here drives the
// coordinator schedule, the AGU programs and the performance simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accel_config.h"
#include "graph/network.h"

namespace db {

/// Which lane pool a fold executes on.
enum class LanePool { kMac, kPooling, kActivation, kNone };

std::string LanePoolName(LanePool pool);

/// The fold decision for one layer.
struct LayerFold {
  int layer_id = 0;
  std::string layer_name;
  LayerKind kind = LayerKind::kInput;
  LanePool pool = LanePool::kMac;

  /// Independent output units that could evaluate concurrently.
  std::int64_t parallel_units = 0;
  /// Lanes actually granted to this layer.
  std::int64_t lanes_used = 0;
  /// Spatial fold count: time slots needed to cover all units.
  std::int64_t segments = 1;
  /// Sequential operations one lane performs per output unit
  /// (dot-product length for MAC layers, window size for pooling, ...).
  std::int64_t unit_work = 1;
  /// Total dominant operations of this layer (= parallel_units*unit_work
  /// for most kinds).
  std::int64_t total_ops = 0;

  /// Ideal datapath cycles: one op per lane per cycle within a segment.
  std::int64_t ComputeCycles() const { return segments * unit_work; }
};

/// A whole network's fold plan.
struct FoldPlan {
  std::vector<LayerFold> folds;

  /// Number of distinct layers time-sharing the datapath.
  std::int64_t TemporalFolds() const {
    return static_cast<std::int64_t>(folds.size());
  }
  /// Total spatial fold segments over all layers (the AGU y-loop
  /// iterations; the coordinator steps layers, not segments).
  std::int64_t TotalSegments() const;
  const LayerFold& ForLayer(int layer_id) const;
  std::string ToString() const;
};

/// Plan folding for a network on a configured datapath.  Throws db::Error
/// when the configuration cannot run the network at all (e.g. zero MAC
/// lanes for a convolutional model).
FoldPlan PlanFolding(const Network& net, const AcceleratorConfig& config);

/// Lane demand of the *fully expanded* mapping (every layer gets its full
/// parallelism concurrently, Fig. 2 style) — used by the folding ablation
/// to show why folding is required at realistic budgets.
struct ExpandedDemand {
  std::int64_t mac_lanes = 0;
  std::int64_t pooling_lanes = 0;
  std::int64_t activation_lanes = 0;
};
ExpandedDemand FullyExpandedDemand(const Network& net);

}  // namespace db
