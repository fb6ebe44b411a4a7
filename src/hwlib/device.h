// FPGA device catalogue and budget resolution.
//
// The paper evaluates on Xilinx Zynq Z-7045 (DB, DB-L) and Z-7020 (DB-S)
// boards; Zhang et al. FPGA'15 used a Virtex-7 VC707.  The catalogue holds
// each device's programmable-logic capacity and power envelope for the
// resource and power models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/constraint.h"

namespace db {

/// Static description of one FPGA device.
struct DeviceInfo {
  std::string name;
  ResourceBudget capacity;
  double static_watts = 0.0;   // device + board static power
  /// Aggregate DDR bandwidth at the AXI ports, gigabytes per second.
  double dram_bandwidth_gbs = 0.0;
  /// On-board DDR3 capacity in bytes: the ceiling on a design's memory
  /// map (weights plus every blob).
  std::int64_t dram_bytes = 0;
};

/// Look up a device by (case-insensitive) name: "zynq-7045", "zynq-7020",
/// "virtex7-vc707".  Throws db::Error for unknown devices.
const DeviceInfo& DeviceCatalog(const std::string& name);

/// Names of all catalogued devices.
std::vector<std::string> DeviceNames();

/// Resolve the absolute resource budget of a constraint: explicit fields
/// win; unset fields come from the device capacity scaled by the budget
/// level (LOW/MEDIUM/HIGH fractions).
ResourceBudget ResolveBudget(const DesignConstraint& constraint);

/// Fraction of device capacity granted per budget level.
double BudgetFraction(BudgetLevel level);

}  // namespace db
