// Transaction-level performance simulation of a generated accelerator.
//
// The simulator walks each layer's fold (FoldPlan) at segment
// granularity, the steps the AGUs' y-counters take.  Each segment is a
// (fetch, compute, store) transaction triple; with double buffering
// (the data-driven default) segment i+1's fetch overlaps segment i's
// compute, exactly the producer/consumer behaviour the AGUs implement.  Memory transaction durations come from
// the DRAM channel model scaled by the data layout's bandwidth
// utilisation and re-fetch factors — this is where Method-1 tiling pays
// off and where the tiling ablation measures its effect.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/trace.h"

namespace db {

struct PerfOptions {
  /// Overlap fetch of the next segment with compute of the current one.
  bool double_buffer = true;
  /// Replace every layout entry by the naive row-major layout (tiling
  /// ablation) before simulating.
  bool force_naive_layout = false;
  /// Cycles the coordinator + AGU retrigger cost per fold segment.
  std::int64_t segment_overhead_cycles = 8;
  /// Pipeline fill/drain cycles per layer.
  std::int64_t layer_overhead_cycles = 24;
  /// DRAM channel latency per burst (cycles), amortised per transaction.
  std::int64_t dram_burst_latency = 16;
  /// Treat each layer's weights as already resident in the weight buffer
  /// (steady-state batch processing): layers whose weight arrays fit the
  /// buffer skip the weight fetch.
  bool weights_resident = false;
  /// When set, the simulator records every DRAM / datapath busy interval
  /// here (see sim/trace.h for VCD export).
  PerfTrace* trace = nullptr;
  /// When set, the simulator publishes this invocation's "sim.*"
  /// metrics here (see PublishPerfMetrics).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Timing of one layer.
struct LayerTiming {
  int layer_id = 0;
  std::string name;
  std::int64_t segments = 1;
  std::int64_t compute_cycles = 0;  // datapath-busy cycles
  std::int64_t memory_cycles = 0;   // DRAM-channel-busy cycles
  std::int64_t total_cycles = 0;    // after overlap
  std::int64_t dram_bytes = 0;
  /// Input re-streaming passes forced by data-buffer overflow (1 = the
  /// working set fit and streamed once).
  std::int64_t refetch_passes = 1;

  /// Wall-clock attribution of `total_cycles` — an exact partition
  /// derived from the segment interval timeline (the three buckets sum
  /// to total_cycles; asserted across the zoo in profile_test):
  ///   * dram_transfer_cycles: DRAM channel busy while the datapath
  ///     idled (exposed memory time, the memory-bound share);
  ///   * datapath_mac_cycles: fold unit work (pure MAC-array time);
  ///   * control_stall_cycles: segment/coordinator overheads, pipeline
  ///     fill/drain, and waits where both resources idled.
  std::int64_t dram_transfer_cycles = 0;
  std::int64_t datapath_mac_cycles = 0;
  std::int64_t control_stall_cycles = 0;
};

/// Whole-network timing.
struct PerfResult {
  std::vector<LayerTiming> layers;
  std::int64_t total_cycles = 0;
  std::int64_t total_dram_bytes = 0;
  double frequency_mhz = 100.0;

  double TotalSeconds() const {
    return static_cast<double>(total_cycles) / (frequency_mhz * 1e6);
  }
  double TotalMs() const { return TotalSeconds() * 1e3; }
  std::string ToString() const;
};

/// Publish the "sim.*" counters and histograms (DRAM bytes, busy
/// cycles, refetch passes, fold segments, per-layer cycles) of
/// `invocations` runs with this result into `metrics`.
/// SimulatePerformance calls it for its one run when options.metrics is
/// set; the inference server calls it once per cold and once per warm
/// result with the number of runs of each.
void PublishPerfMetrics(const PerfResult& result,
                        obs::MetricsRegistry& metrics,
                        std::int64_t invocations = 1);

/// Simulate one forward propagation of `net` on `design`.
PerfResult SimulatePerformance(const Network& net,
                               const AcceleratorDesign& design,
                               const PerfOptions& options = {});

/// Fold a simulated run into the per-layer bottleneck-attribution
/// report (obs/profile.h): the LayerTiming attribution buckets plus
/// PE/buffer utilisation derived from the layer statistics and the
/// design configuration, sorted hottest-first.  Byte-stable renderings;
/// `deepburning profile` is this function over a fresh simulation.
obs::ProfileReport BuildProfileReport(const Network& net,
                                      const AcceleratorDesign& design,
                                      const PerfResult& perf);

/// Batched invocation: the first image pays the cold-weight run; later
/// images reuse buffered weights where they fit (latency vs throughput,
/// the batch amortisation a host runtime exploits).
struct BatchResult {
  std::int64_t images = 0;
  std::int64_t first_image_cycles = 0;
  std::int64_t steady_image_cycles = 0;
  std::int64_t total_cycles = 0;
  double frequency_mhz = 100.0;

  double LatencySeconds() const {
    return static_cast<double>(first_image_cycles) /
           (frequency_mhz * 1e6);
  }
  double ThroughputImagesPerSecond() const {
    return images > 0 ? static_cast<double>(images) /
                            (static_cast<double>(total_cycles) /
                             (frequency_mhz * 1e6))
                      : 0.0;
  }
};
BatchResult SimulateBatch(const Network& net,
                          const AcceleratorDesign& design,
                          std::int64_t images,
                          const PerfOptions& options = {});

}  // namespace db
