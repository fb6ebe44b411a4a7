#include "sim/perf_model.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "graph/layer_stats.h"

namespace db {
namespace {

/// Per-layer memory traffic derived from the data layout.
struct LayerTraffic {
  std::int64_t fetch_bytes = 0;   // bytes occupying the DRAM channel
  std::int64_t store_bytes = 0;
  std::int64_t useful_bytes = 0;  // traffic net of utilisation waste
  std::int64_t passes = 1;        // input re-streams (buffer overflow)
};

/// A non-negative double count as int64, saturating at INT64_MAX (an
/// absurd design must not wrap into a plausible cycle count).
std::int64_t SatCycles(double v) {
  return v >= 0x1p63 ? INT64_MAX : static_cast<std::int64_t>(v);
}

LayerTraffic ComputeTraffic(const IrLayer& layer, const TileSpec& layout,
                            const AcceleratorConfig& config,
                            bool weights_resident) {
  LayerTraffic t;
  const std::int64_t elem = config.ElementBytes();
  const LayerStats stats = ComputeLayerStats(layer);
  const std::int64_t input_bytes = SatMul(stats.input_elems, elem);
  std::int64_t weight_bytes = SatMul(stats.weight_count, elem);
  if (weights_resident && weight_bytes <= config.weight_buffer_bytes)
    weight_bytes = 0;  // already on chip from the previous image
  t.store_bytes = SatMul(stats.output_elems, elem);

  // If the layer's input working set exceeds the data buffer, the tiles
  // cannot all stay resident and the input streams again from DRAM for
  // the uncovered passes.  Buffer pressure is a property of the working
  // set alone: an unfolded layer (segments == 1) whose input overflows
  // the buffer refetches just the same, so the pass count must not be
  // gated on the fold plan.
  std::int64_t passes = 1;
  if (input_bytes > config.data_buffer_bytes)
    passes = CeilDiv(input_bytes,
                     std::max<std::int64_t>(config.data_buffer_bytes, 1));
  t.passes = passes;

  const double fetched =
      static_cast<double>(input_bytes) * layout.refetch /
          std::max(layout.utilization, 1e-6) *
          static_cast<double>(passes) +
      static_cast<double>(weight_bytes);
  t.fetch_bytes = SatCycles(fetched);
  t.useful_bytes = SatAdd(SatMul(input_bytes, passes), weight_bytes);
  return t;
}

/// Total overlap between two sets of intervals, each internally sorted
/// and disjoint (the DRAM channel and the datapath both serialise their
/// transactions, so the per-layer interval lists satisfy this by
/// construction).
std::int64_t OverlapCycles(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& a,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& b) {
  std::size_t i = 0, j = 0;
  std::int64_t total = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total = SatAdd(total, hi - lo);
    if (a[i].second < b[j].second)
      ++i;
    else
      ++j;
  }
  return total;
}

}  // namespace

std::string PerfResult::ToString() const {
  std::ostringstream os;
  os << StrFormat("  %-16s %9s %12s %12s %12s %12s\n", "layer", "segs",
                  "compute_cyc", "memory_cyc", "total_cyc", "dram_bytes");
  for (const LayerTiming& lt : layers)
    os << StrFormat("  %-16s %9lld %12lld %12lld %12lld %12lld\n",
                    lt.name.c_str(), static_cast<long long>(lt.segments),
                    static_cast<long long>(lt.compute_cycles),
                    static_cast<long long>(lt.memory_cycles),
                    static_cast<long long>(lt.total_cycles),
                    static_cast<long long>(lt.dram_bytes));
  os << StrFormat("  total: %lld cycles = %.3f ms @ %.0f MHz, %lld DRAM "
                  "bytes\n",
                  static_cast<long long>(total_cycles), TotalMs(),
                  frequency_mhz,
                  static_cast<long long>(total_dram_bytes));
  return os.str();
}

void PublishPerfMetrics(const PerfResult& result,
                        obs::MetricsRegistry& metrics,
                        std::int64_t invocations) {
  // Commutative kinds only (counters + histograms), so the totals do not
  // depend on the order invocations are published in.
  const std::int64_t n = invocations;
  metrics.AddCounter("sim.invocations", n);
  metrics.AddCounter("sim.total_cycles", result.total_cycles * n);
  metrics.AddCounter("sim.dram_bytes", result.total_dram_bytes * n);
  for (const LayerTiming& lt : result.layers) {
    metrics.AddCounter("sim.datapath_cycles", lt.compute_cycles * n);
    metrics.AddCounter("sim.memory_cycles", lt.memory_cycles * n);
    metrics.AddCounter("sim.fold_segments", lt.segments * n);
    metrics.AddCounter("sim.refetch_passes", lt.refetch_passes * n);
    metrics.AddCounter("sim.dram_transfer_cycles",
                       lt.dram_transfer_cycles * n);
    metrics.AddCounter("sim.datapath_mac_cycles",
                       lt.datapath_mac_cycles * n);
    metrics.AddCounter("sim.control_stall_cycles",
                       lt.control_stall_cycles * n);
    metrics.Observe("sim.layer_cycles",
                    static_cast<double>(lt.total_cycles), n);
  }
}

PerfResult SimulatePerformance(const Network& net,
                               const AcceleratorDesign& design,
                               const PerfOptions& options) {
  PerfResult result;
  result.frequency_mhz = design.config.frequency_mhz;
  const double bytes_per_cycle = design.config.DramBytesPerCycle();
  DB_CHECK_MSG(bytes_per_cycle > 0, "DRAM bandwidth must be positive");

  std::int64_t now = 0;           // global time (cycles)
  std::int64_t dram_free = 0;     // DRAM channel availability
  std::int64_t datapath_free = 0;

  for (const IrLayer* layer : net.ComputeLayers()) {
    const LayerFold& fold = design.fold_plan.ForLayer(layer->id);
    TileSpec layout = design.layout.ForLayer(layer->id).input_layout;
    if (options.force_naive_layout) {
      std::int64_t kernel = 1;
      std::int64_t stride = 1;
      if (layer->kind() == LayerKind::kConvolution) {
        kernel = layer->def.conv->kernel_size;
        stride = layer->def.conv->stride;
      } else if (layer->kind() == LayerKind::kPooling) {
        kernel = layer->def.pool->kernel_size;
        stride = layer->def.pool->stride;
      }
      layout = NaiveRowMajorLayout(layer->input_shapes.front(), kernel,
                                   stride, design.config.memory_port_elems);
    }
    const LayerTraffic traffic = ComputeTraffic(
        *layer, layout, design.config, options.weights_resident);

    LayerTiming lt;
    lt.layer_id = layer->id;
    lt.name = layer->name();
    lt.segments = fold.segments;
    lt.dram_bytes = SatAdd(traffic.fetch_bytes, traffic.store_bytes);
    lt.refetch_passes = traffic.passes;

    const std::int64_t layer_start = now;
    const std::int64_t segs = std::max<std::int64_t>(fold.segments, 1);
    // Cycle arithmetic saturates at INT64_MAX: an oversized design
    // reports "never finishes" instead of wrapping.
    const std::int64_t fetch_per_seg =
        SatAdd(SatCycles(static_cast<double>(traffic.fetch_bytes) /
                         static_cast<double>(segs) / bytes_per_cycle),
               options.dram_burst_latency);
    const std::int64_t store_per_seg =
        SatCycles(static_cast<double>(traffic.store_bytes) /
                  static_cast<double>(segs) / bytes_per_cycle);
    const std::int64_t compute_per_seg =
        SatAdd(fold.unit_work, options.segment_overhead_cycles);

    // Two on-chip buffer slots: segment i's fetch may start once segment
    // i-2's compute released its slot.  Output results drain through a
    // write-back buffer, so stores do not block the next segment's fetch;
    // the layer completes when the drain finishes.
    std::vector<std::int64_t> compute_end(static_cast<std::size_t>(segs),
                                          0);
    // Busy intervals of the layer, for the cycle attribution below.
    // Each resource serialises its transactions, so both lists are
    // sorted and disjoint.
    std::vector<std::pair<std::int64_t, std::int64_t>> dram_iv;
    std::vector<std::pair<std::int64_t, std::int64_t>> compute_iv;
    dram_iv.reserve(static_cast<std::size_t>(segs) + 1);
    compute_iv.reserve(static_cast<std::size_t>(segs));
    std::int64_t last_compute_end = layer_start;
    for (std::int64_t s = 0; s < segs; ++s) {
      std::int64_t fetch_start = std::max(dram_free, layer_start);
      if (!options.double_buffer)
        fetch_start = std::max(fetch_start, datapath_free);
      if (s >= 2)
        fetch_start = std::max(fetch_start,
                               compute_end[static_cast<std::size_t>(s - 2)]);
      const std::int64_t fetch_end = SatAdd(fetch_start, fetch_per_seg);
      dram_free = fetch_end;

      const std::int64_t compute_start =
          std::max(fetch_end, datapath_free);
      const std::int64_t c_end = SatAdd(compute_start, compute_per_seg);
      compute_end[static_cast<std::size_t>(s)] = c_end;
      datapath_free = c_end;
      last_compute_end = c_end;
      dram_iv.emplace_back(fetch_start, fetch_end);
      compute_iv.emplace_back(compute_start, c_end);
      if (options.trace != nullptr) {
        options.trace->events.push_back({TraceEvent::Resource::kDram,
                                         layer->id, fetch_start,
                                         fetch_end});
        options.trace->events.push_back({TraceEvent::Resource::kDatapath,
                                         layer->id, compute_start, c_end});
      }

      lt.compute_cycles = SatAdd(lt.compute_cycles, compute_per_seg);
      lt.memory_cycles = SatAdd(lt.memory_cycles,
                                SatAdd(fetch_per_seg, store_per_seg));
    }
    // Write-back drain of all segments' outputs.
    const std::int64_t drain_start = std::max(dram_free, last_compute_end);
    const std::int64_t drain_end =
        SatAdd(drain_start, SatMul(store_per_seg, segs));
    if (options.trace != nullptr && drain_end > drain_start)
      options.trace->events.push_back({TraceEvent::Resource::kDram,
                                       layer->id, drain_start, drain_end});
    dram_free = drain_end;
    if (drain_end > drain_start) dram_iv.emplace_back(drain_start, drain_end);
    now = SatAdd(std::max(last_compute_end, drain_end),
                 options.layer_overhead_cycles);
    datapath_free = now;
    lt.total_cycles = now - layer_start;

    // Exact wall-clock attribution: DRAM-busy time not hidden behind
    // the datapath is the memory-bound share; the fold unit work is the
    // compute-bound share; everything else on the critical path —
    // segment/coordinator overheads, the layer fill/drain allowance and
    // waits where both resources idled — is control/stall.  The three
    // buckets partition total_cycles by construction.
    std::int64_t dram_busy = 0;
    for (const auto& [lo, hi] : dram_iv)
      dram_busy = SatAdd(dram_busy, hi - lo);
    lt.dram_transfer_cycles = dram_busy - OverlapCycles(dram_iv, compute_iv);
    lt.datapath_mac_cycles = SatMul(fold.unit_work, segs);
    lt.control_stall_cycles =
        lt.total_cycles - lt.dram_transfer_cycles - lt.datapath_mac_cycles;

    result.total_dram_bytes =
        SatAdd(result.total_dram_bytes, lt.dram_bytes);
    result.layers.push_back(std::move(lt));
  }
  result.total_cycles = now;
  if (options.trace != nullptr) options.trace->total_cycles = now;
  if (options.metrics != nullptr) PublishPerfMetrics(result, *options.metrics);
  return result;
}

obs::ProfileReport BuildProfileReport(const Network& net,
                                      const AcceleratorDesign& design,
                                      const PerfResult& perf) {
  obs::ProfileReport report;
  report.model = net.name();
  report.frequency_mhz = perf.frequency_mhz;
  report.lanes = design.config.TotalLanes();
  report.total_cycles = perf.total_cycles;
  report.total_dram_bytes = perf.total_dram_bytes;

  std::map<int, const LayerTiming*> by_id;
  for (const LayerTiming& lt : perf.layers) by_id[lt.layer_id] = &lt;

  const std::int64_t lanes =
      std::max<std::int64_t>(design.config.TotalLanes(), 1);
  const std::int64_t elem = design.config.ElementBytes();
  report.layers.reserve(perf.layers.size());
  for (const IrLayer* layer : net.ComputeLayers()) {
    const auto it = by_id.find(layer->id);
    if (it == by_id.end()) continue;  // layer folded away by the planner
    const LayerTiming& lt = *it->second;
    const LayerStats stats = ComputeLayerStats(*layer);

    obs::LayerProfile p;
    p.layer_id = lt.layer_id;
    p.name = lt.name;
    p.segments = lt.segments;
    p.total_cycles = lt.total_cycles;
    p.dram_cycles = lt.dram_transfer_cycles;
    p.mac_cycles = lt.datapath_mac_cycles;
    p.stall_cycles = lt.control_stall_cycles;
    p.dram_bytes = lt.dram_bytes;
    p.refetch_passes = lt.refetch_passes;
    if (lt.total_cycles > 0)
      p.pe_utilization = std::min(
          1.0, static_cast<double>(stats.macs) /
                   (static_cast<double>(lanes) *
                    static_cast<double>(lt.total_cycles)));
    if (design.config.data_buffer_bytes > 0)
      p.buffer_utilization = std::min(
          1.0, static_cast<double>(stats.input_elems * elem) /
                   static_cast<double>(design.config.data_buffer_bytes));
    report.layers.push_back(std::move(p));
  }
  report.Sort();
  return report;
}

BatchResult SimulateBatch(const Network& net,
                          const AcceleratorDesign& design,
                          std::int64_t images,
                          const PerfOptions& options) {
  DB_CHECK_MSG(images >= 1, "batch needs at least one image");
  BatchResult result;
  result.images = images;
  result.frequency_mhz = design.config.frequency_mhz;

  const PerfResult cold = SimulatePerformance(net, design, options);
  result.first_image_cycles = cold.total_cycles;

  PerfOptions steady = options;
  steady.weights_resident = true;
  const PerfResult warm = SimulatePerformance(net, design, steady);
  result.steady_image_cycles = warm.total_cycles;

  result.total_cycles = SatAdd(cold.total_cycles,
                               SatMul(images - 1, warm.total_cycles));
  return result;
}

}  // namespace db
