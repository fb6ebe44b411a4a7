// The NN component library of Fig. 5: reconfigurable RTL building blocks.
//
// Blocks are "not hardwired in the RTL library but leave out multiple
// reconfigurable parameters" (paper §3.2) — bit width, neuron-level
// parallelism, disablable ports — which NN-Gen fixes per design.  A
// BlockConfig is the fixed parameterisation; a BlockInstance is one named
// instantiation inside a generated accelerator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace db {

/// Every block type in the component library (Fig. 5), plus the two
/// control building blocks (§3.2 end): the scheduling coordinator and the
/// Address Generation Unit.
enum class BlockType {
  kSynergyNeuron,   // weight-by-feature MAC lane array
  kAccumulator,     // partial-sum accumulation tree
  kPoolingUnit,     // max/average window reduction
  kLrnUnit,         // local response normalisation pipeline
  kDropoutUnit,     // mask/scale inserter
  kClassifier,      // k-sorter based top-k selector (Beigel & Gill)
  kActivationUnit,  // activation function evaluator (wraps an Approx LUT)
  kApproxLut,       // approximate lookup table with interpolation
  kConnectionBox,   // inter-layer crossbar + shifting latch
  kAgu,             // address generation unit (main / data / weight)
  kCoordinator,     // FSM-based central scheduling coordinator
  kBufferBank,      // on-chip BRAM buffer (feature or weight)
};

std::string BlockTypeName(BlockType type);

/// Role of an AGU instance (paper §3.3): main moves data between DRAM and
/// on-chip buffers; data/weight stream operands into the datapath.
enum class AguRole { kMain, kData, kWeight };

std::string AguRoleName(AguRole role);

/// One block's fixed parameterisation.  Fields are interpreted per type;
/// unused fields stay at their defaults and cost nothing.
struct BlockConfig {
  BlockType type = BlockType::kSynergyNeuron;
  int bit_width = 16;   // datapath element width
  int lanes = 1;        // parallel processing elements in the block
  bool use_dsp = true;  // synergy neuron: DSP-slice vs LUT-fabric multiplier
  int ports = 2;        // connection box port count
  std::int64_t depth = 0;      // buffer bytes or Approx LUT entries
  int patterns = 1;     // AGU: distinct access patterns supported
  AguRole agu_role = AguRole::kData;
  int fold_events = 1;  // coordinator: FSM states, one per layer
  bool interpolate = true;  // Approx LUT: super-linear interpolation stage
};

/// A named instantiation of a configured block inside one design.
struct BlockInstance {
  std::string name;  // unique Verilog-legal instance name
  BlockConfig config;
};

/// Library-level validation: rejects configurations the reconfigurable
/// RTL templates cannot realise (e.g. zero lanes, LUT depth not a power
/// of two).  Throws db::Error.
void ValidateBlockConfig(const BlockConfig& config);

/// Short human-readable description, e.g. "synergy_neuron[16b x32 dsp]".
std::string DescribeBlock(const BlockConfig& config);

}  // namespace db
