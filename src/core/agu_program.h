// AGU access-pattern generation (paper §3.3, Fig. 6).
//
// For every layer the compiler derives the address patterns its three AGU
// roles need: the main AGU moves the layer's input tiles, weights and
// outputs between DRAM and the on-chip buffers; the data and weight AGUs
// stream operands from the buffers into the datapath.  Each pattern is an
// FSM descriptor with the template AGU's key fields (start address,
// footprint, x_length, y_length, stride, offset) plus the trigger event
// name; the hardware generator reduces the template AGU to exactly the
// patterns that appear here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accel_config.h"
#include "core/data_layout.h"
#include "core/folding.h"
#include "core/memory_map.h"
#include "hwlib/blocks.h"

namespace db {

/// What a main-AGU pattern transfers.
enum class TransferKind { kLoadInput, kLoadWeights, kStoreOutput,
                          kStreamData, kStreamWeights };

std::string TransferKindName(TransferKind kind);

/// One access pattern (Fig. 6 template fields).
struct AguPattern {
  int id = 0;
  AguRole role = AguRole::kMain;
  TransferKind kind = TransferKind::kLoadInput;
  int layer_id = 0;  // its trigger event is AguTriggerEvent(layer_id)

  std::int64_t start_addr = 0;
  std::int64_t x_length = 1;   // inner-loop beats
  std::int64_t y_length = 1;   // outer-loop rows
  std::int64_t stride = 1;     // address step per inner beat (bytes)
  std::int64_t offset = 0;     // row-base step per outer row (bytes)

  /// Total bytes touched = x_length * y_length * beat_bytes.
  std::int64_t beat_bytes = 1;
  std::int64_t Footprint() const {
    return x_length * y_length * beat_bytes;
  }
};

/// The event that triggers a layer's patterns, "layer<id>_fold0": the
/// coordinator raises it on entering the layer's schedule state.
std::string AguTriggerEvent(int layer_id);

/// Expand a pattern into its address stream exactly as the RTL AGU's
/// nested x/y counters would — used by tests and the functional memory
/// model to validate coverage.
std::vector<std::int64_t> ExpandPattern(const AguPattern& pattern);

/// Buffer-reusing variant for hot loops (e.g. sweeping a whole
/// program's patterns): clears `addrs` and refills it, keeping its
/// capacity across calls.
void ExpandPatternInto(const AguPattern& pattern,
                       std::vector<std::int64_t>& addrs);

/// All patterns of a design plus per-role tallies.
struct AguProgram {
  std::vector<AguPattern> patterns;

  std::vector<const AguPattern*> ForLayer(int layer_id) const;
  int CountFor(AguRole role) const;
  std::string ToString() const;
};

/// Derive the full program for a network on a configured datapath.
AguProgram BuildAguProgram(const Network& net,
                           const AcceleratorConfig& config,
                           const FoldPlan& folds,
                           const DataLayoutPlan& layout,
                           const MemoryMap& memory);

}  // namespace db
