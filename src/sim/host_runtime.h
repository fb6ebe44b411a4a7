// Host-side runtime: the software the ARM Cortex-A9 runs in the paper's
// system (§4.1) — it owns the DRAM image, preprocesses inputs into the
// compiler-directed layout, kicks invocations, reads results back, and
// keeps cumulative accounting.  This is the top of the whole stack: a
// user application links against this class and never touches the
// accelerator internals.
#pragma once

#include <span>

#include "core/memory_image.h"
#include "sim/perf_model.h"
#include "sim/power_model.h"
#include "sim/system_sim.h"

namespace db {

/// Result of one accelerator invocation as the host sees it.
struct HostInvocation {
  Tensor output;
  std::int64_t cycles = 0;
  double seconds = 0.0;
  double joules = 0.0;
  StatusCode status = StatusCode::kOk;  // from SystemRunResult
};

/// Cumulative session accounting.
struct HostStats {
  std::int64_t invocations = 0;
  double total_seconds = 0.0;
  double total_joules = 0.0;
  std::int64_t total_dram_bytes = 0;
};

/// Build the board's start-up DRAM image: all weights serialised, the
/// input region zeroed.  Shared by HostRuntime and the inference
/// server's worker contexts (which each copy the image built once here).
MemoryImage BuildHostImage(const Network& net,
                           const AcceleratorDesign& design,
                           const WeightStore& weights);

class HostRuntime {
 public:
  /// Builds the DRAM image (weights serialised once, the way the board
  /// is provisioned at start-up) and the one SystemContext every
  /// invocation runs through.
  HostRuntime(const Network& net, const AcceleratorDesign& design,
              const WeightStore& weights,
              std::string device_name = "zynq-7045");

  /// One inference: write input, invoke, read output back.
  HostInvocation Infer(const Tensor& input);

  /// Batched inference: the first image pays the cold-weight cost; the
  /// rest run with resident weights where they fit (SimulateBatch's
  /// steady-state model).
  std::vector<HostInvocation> InferBatch(std::span<const Tensor> inputs);

  const HostStats& stats() const { return stats_; }

  /// Direct access to the DRAM image (fault-injection experiments): a
  /// weight corruption written here shows in the next invocation.
  MemoryImage& image() { return image_; }

 private:
  HostInvocation MakeInvocation(const SystemRunResult& run);

  const AcceleratorDesign& design_;
  const DeviceInfo& device_;
  MemoryImage image_;
  const SystemContext context_;  // reads image_'s weight regions
  HostStats stats_;
};

}  // namespace db
