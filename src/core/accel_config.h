// The datapath configuration NN-Gen fixes for one generated accelerator.
//
// This is the contract between the generator (which sizes the datapath
// under the resource constraint), the compiler passes (folding, layout,
// AGU programs, schedule), the RTL builder and the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "common/fixed_point.h"
#include "frontend/constraint.h"

namespace db {

struct AcceleratorConfig {
  std::string network_name;
  FixedFormat format{16, 8};
  double frequency_mhz = 100.0;
  double dram_bandwidth_gbs = 2.0;
  /// Board DRAM capacity (bytes) the memory map must fit in.
  std::int64_t dram_bytes = std::int64_t{2} << 30;

  // Synergy-neuron MAC lanes, split by multiplier implementation.
  int dsp_lanes = 0;
  int lut_lanes = 0;
  int TotalLanes() const { return dsp_lanes + lut_lanes; }

  // Secondary function lanes.
  int pooling_lanes = 0;
  int activation_lanes = 0;
  int accumulator_lanes = 0;

  // Optional units, instantiated only when the network needs them
  // (disablable ports/functions, paper §3.2).
  bool has_lrn = false;
  bool has_dropout = false;
  bool has_classifier = false;
  int classifier_k = 1;
  bool has_connection_box = false;  // recurrent / memory layers
  int connection_box_ports = 0;

  // On-chip buffering.
  std::int64_t data_buffer_bytes = 0;
  std::int64_t weight_buffer_bytes = 0;
  /// Elements per buffer row / memory port activation (the d of Method-1).
  std::int64_t memory_port_elems = 8;

  // Approx LUT sizing for the activation unit.
  std::int64_t approx_lut_entries = 256;
  bool approx_lut_interpolate = true;

  /// The budget the configuration was sized against.
  ResourceBudget budget;

  /// Bytes per datapath element.
  std::int64_t ElementBytes() const {
    return (format.total_bits() + 7) / 8;
  }

  /// DRAM bytes deliverable per accelerator clock cycle
  /// (dram_bandwidth_gbs is in gigaBYTES per second).
  double DramBytesPerCycle() const {
    return dram_bandwidth_gbs * 1e9 / (frequency_mhz * 1e6);
  }
};

}  // namespace db
