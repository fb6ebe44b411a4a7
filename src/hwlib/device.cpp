#include "hwlib/device.h"

#include <array>

#include "common/error.h"
#include "common/strings.h"

namespace db {
namespace {

// Capacities from the Xilinx 7-series datasheets (logic cells reported as
// 6-input LUTs; BRAM as total bytes).  DRAM is the board DDR3: the 2 GB
// the paper's Zynq systems store weights and inputs in, and the 1 GB
// SODIMM of the VC707.  Static watts approximate the board idle draw of
// the full evaluation board (PS + DDR + fabric idle): ZC706-class for the
// Z-7045, Zedboard-class for the Z-7020.
const std::array<DeviceInfo, 3> kDevices = {{
    {"zynq-7045",
     {/*dsp=*/900, /*lut=*/218600, /*ff=*/437200,
      /*bram_bytes=*/2448 * 1024},
     /*static_watts=*/4.0,
     /*dram_bandwidth_gbs=*/8.5,  // 4 AXI HP ports aggregated
     /*dram_bytes=*/std::int64_t{2} << 30},
    {"zynq-7020",
     {/*dsp=*/220, /*lut=*/53200, /*ff=*/106400,
      /*bram_bytes=*/560 * 1024},
     /*static_watts=*/1.2,
     /*dram_bandwidth_gbs=*/4.2,
     /*dram_bytes=*/std::int64_t{2} << 30},
    {"virtex7-vc707",
     {/*dsp=*/2800, /*lut=*/303600, /*ff=*/607200,
      /*bram_bytes=*/4680 * 1024},
     /*static_watts=*/3.0,
     /*dram_bandwidth_gbs=*/12.8,
     /*dram_bytes=*/std::int64_t{1} << 30},
}};

}  // namespace

const DeviceInfo& DeviceCatalog(const std::string& name) {
  const std::string key = ToLower(name);
  for (const DeviceInfo& dev : kDevices)
    if (dev.name == key) return dev;
  DB_THROW("unknown device '" << name << "' (known: zynq-7045, zynq-7020, "
           "virtex7-vc707)");
}

std::vector<std::string> DeviceNames() {
  std::vector<std::string> names;
  for (const DeviceInfo& dev : kDevices) names.push_back(dev.name);
  return names;
}

double BudgetFraction(BudgetLevel level) {
  // LOW targets a heavily-shared datapath on a small device; HIGH grants
  // most of the fabric (DB-L in the paper), leaving room for the SoC
  // infrastructure (AXI interconnect, host interface).
  switch (level) {
    case BudgetLevel::kLow: return 0.25;
    case BudgetLevel::kMedium: return 0.45;
    case BudgetLevel::kHigh: return 0.80;
  }
  return 0.45;
}

ResourceBudget ResolveBudget(const DesignConstraint& constraint) {
  const DeviceInfo& dev = DeviceCatalog(constraint.device);
  const ResourceBudget scaled =
      dev.capacity.Scaled(BudgetFraction(constraint.budget));
  ResourceBudget out = constraint.explicit_budget;
  if (out.dsp <= 0) out.dsp = scaled.dsp;
  if (out.lut <= 0) out.lut = scaled.lut;
  if (out.ff <= 0) out.ff = scaled.ff;
  if (out.bram_bytes <= 0) out.bram_bytes = scaled.bram_bytes;
  return out;
}

}  // namespace db
