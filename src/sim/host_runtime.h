// Host-side provisioning: the software the ARM Cortex-A9 runs in the
// paper's system (§4.1) stores the preprocessed weights into DDR3 before
// the first invocation.  Invocations then go through the one invocation
// API: a SystemContext on the provisioned image (sim/system_sim.h), with
// energy from EstimateEnergy (sim/power_model.h).
#pragma once

#include "core/memory_image.h"
#include "sim/system_sim.h"

namespace db {

/// Build the board's start-up DRAM image: all weights serialised, the
/// input region zeroed.  Callers hold a SystemContext on it; the
/// inference server seals it and maps each replica copy-on-write from
/// it (see ReplicateSystem).
MemoryImage BuildHostImage(const Network& net,
                           const AcceleratorDesign& design,
                           const WeightStore& weights);

}  // namespace db
