// Builds the generated accelerator's Verilog design from the block
// instance list: one module definition per unique configuration plus the
// top-level module wiring AGUs, buffers, datapath and coordinator.
#pragma once

#include <vector>

#include "core/accel_config.h"
#include "hwlib/blocks.h"
#include "rtl/verilog.h"

namespace db {

/// Emit the complete design.  The result passes analysis::VerifyRtl.
VDesign BuildRtl(const AcceleratorConfig& config,
                 const std::vector<BlockInstance>& blocks);

}  // namespace db
