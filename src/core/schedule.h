// Dynamic control flow: the coordinator's FSM schedule (paper §3.3).
//
// The data-driven architecture needs only producer→consumer reconnection
// at pre-determined beats.  The coordinator holds one FSM state per
// temporal fold (layer): entering it sets the crossbar that connects the
// layer's producer to the block executing it, loads the connection
// box's shifting latch, and arms the layer's AGU patterns.  The spatial
// fold segments inside a layer are stepped by the AGUs' y-counters, not
// by the FSM, so the schedule holds one entry per compute layer and the
// segment counts live only in the FoldPlan.  The emitted coordinator
// sizes its FSM to the same count (FoldPlan::TemporalFolds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/agu_program.h"
#include "core/folding.h"

namespace db {

/// Fixed datapath port indices (stable across designs so the coordinator
/// microcode is position-independent).
enum class DatapathPort : int {
  kDataBuffer = 0,
  kSynergyArray = 1,
  kAccumulator = 2,
  kPoolingUnit = 3,
  kActivationUnit = 4,
  kClassifier = 5,
  kConnectionBox = 6,
};

std::string DatapathPortName(DatapathPort port);

/// The port of the block that executes a fold: its lane pool's block, or
/// the classifier / connection box for pool-less layers.
DatapathPort ConsumerPortFor(const LayerFold& fold);

/// One coordinator FSM state: the crossbar setting and AGU arming for
/// one compute layer.
struct ScheduleEntry {
  int layer_id = 0;
  DatapathPort producer = DatapathPort::kDataBuffer;
  DatapathPort consumer = DatapathPort::kSynergyArray;
  /// Arithmetic right shift applied by the shifting latch (average
  /// pooling's power-of-two division); 0 = pass-through.
  int shift = 0;
  std::vector<int> pattern_ids;  // AGU patterns armed on entry
};

/// The whole control flow.
struct Schedule {
  std::vector<ScheduleEntry> entries;

  /// One row per layer, with its segment count and fold events read
  /// from `folds`.
  std::string ToString(const FoldPlan& folds) const;
};

/// Build the coordinator schedule: one entry per compute layer, in
/// propagation order, with the producer chained from the previous
/// layer's consumer (or the data buffer for the first layer).
Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu);

}  // namespace db
