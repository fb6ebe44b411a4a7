#include "analysis/verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "core/approx_lut.h"
#include "graph/layer_stats.h"
#include "hwlib/resource_model.h"

namespace db::analysis {
namespace {

// ---------------------------------------------------------------------
// Overflow-safe interval arithmetic for AGU address footprints.  A
// corrupted pattern can hold values whose products wrap std::int64_t;
// the verifier must report that as a diagnostic, not exhibit UB itself.
// ---------------------------------------------------------------------

struct AddrInterval {
  std::int64_t lo = 0;   // lowest byte address touched
  std::int64_t hi = 0;   // one past the highest byte touched
  bool wraps = false;    // any intermediate product/sum overflowed
};

bool MulAdd(std::int64_t a, std::int64_t b, std::int64_t c,
            std::int64_t* out) {
  std::int64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) return false;
  return !__builtin_add_overflow(product, c, out);
}

/// [lo, hi) of the nested x/y counter sweep, exactly as ExpandPattern
/// walks it, including the final beat's extent.
AddrInterval PatternInterval(const AguPattern& p) {
  AddrInterval iv;
  std::int64_t span_x = 0;
  std::int64_t span_y = 0;
  if (!MulAdd(p.x_length - 1, p.stride, 0, &span_x) ||
      !MulAdd(p.y_length - 1, p.offset, 0, &span_y)) {
    iv.wraps = true;
    return iv;
  }
  std::int64_t lo = p.start_addr;
  std::int64_t hi = p.start_addr;
  if (__builtin_add_overflow(lo, std::min<std::int64_t>(span_x, 0), &lo) ||
      __builtin_add_overflow(lo, std::min<std::int64_t>(span_y, 0), &lo) ||
      __builtin_add_overflow(hi, std::max<std::int64_t>(span_x, 0), &hi) ||
      __builtin_add_overflow(hi, std::max<std::int64_t>(span_y, 0), &hi) ||
      __builtin_add_overflow(hi, p.beat_bytes, &hi)) {
    iv.wraps = true;
    return iv;
  }
  iv.lo = lo;
  iv.hi = hi;
  return iv;
}

std::string LayerNameOrId(const Network& net, int layer_id) {
  for (const IrLayer& layer : net.layers())
    if (layer.id == layer_id) return layer.name();
  return "#" + std::to_string(layer_id);
}

const IrLayer* FindLayer(const Network& net, int layer_id) {
  for (const IrLayer& layer : net.layers())
    if (layer.id == layer_id) return &layer;
  return nullptr;
}

std::string I64(std::int64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------
// Rule 1: agu.bounds
// ---------------------------------------------------------------------
void CheckAguBounds(const Network& net, const AcceleratorDesign& design,
                    AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleAguBounds, loc, msg);
  };
  const auto note = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kNote, kRuleAguBounds, loc, msg);
  };

  for (const AguPattern& p : design.agu_program.patterns) {
    const std::string loc = "agu/pattern:" + std::to_string(p.id);
    if (p.x_length < 1 || p.y_length < 1 || p.beat_bytes < 1) {
      err(loc, "degenerate loop bounds (x_length " + I64(p.x_length) +
               ", y_length " + I64(p.y_length) + ", beat_bytes " +
               I64(p.beat_bytes) + ") — every field must be >= 1");
      continue;
    }
    const AddrInterval iv = PatternInterval(p);
    if (iv.wraps) {
      err(loc, "address arithmetic wraps 64-bit space (start " +
               I64(p.start_addr) + ", stride " + I64(p.stride) +
               ", offset " + I64(p.offset) + ")");
      continue;
    }

    if (p.role == AguRole::kMain) {
      // DRAM pattern: the whole sweep must sit inside the one region
      // that contains its start address, and that region must be of the
      // kind the transfer claims to move.
      const MemoryRegion* home = nullptr;
      for (const MemoryRegion& r : design.memory_map.regions())
        if (p.start_addr >= r.base && p.start_addr < r.end()) home = &r;
      if (home == nullptr) {
        err(loc, "start address " + I64(p.start_addr) +
                 " is outside every mapped DRAM region");
        continue;
      }
      if (iv.lo < home->base || iv.hi > home->end())
        err(loc, "footprint [" + I64(iv.lo) + ", " + I64(iv.hi) +
                 ") escapes region '" + home->name + "' [" +
                 I64(home->base) + ", " + I64(home->end()) + ")");
      // Region-kind consistency per transfer kind.
      const std::string layer_name = LayerNameOrId(net, p.layer_id);
      switch (p.kind) {
        case TransferKind::kLoadWeights:
          if (home->name != "weights:" + layer_name)
            err(loc, "weight load for layer '" + layer_name +
                     "' addresses region '" + home->name + "'");
          break;
        case TransferKind::kStoreOutput:
          if (home->name != "blob:" + layer_name)
            err(loc, "output store for layer '" + layer_name +
                     "' addresses region '" + home->name + "'");
          break;
        case TransferKind::kLoadInput: {
          const IrLayer* layer = FindLayer(net, p.layer_id);
          bool from_producer = false;
          if (layer != nullptr)
            for (int producer_id : layer->input_ids)
              if (home->name == "blob:" + LayerNameOrId(net, producer_id))
                from_producer = true;
          if (!from_producer)
            err(loc, "input load for layer '" + layer_name +
                     "' addresses region '" + home->name +
                     "', which no producer owns");
          break;
        }
        case TransferKind::kStreamData:
        case TransferKind::kStreamWeights:
          err(loc, "stream-kind pattern assigned to the main AGU");
          break;
      }
    } else {
      // Buffer-relative stream: addresses are offsets into the on-chip
      // buffer.  Negative addresses can never be realised; a row wider
      // than the buffer wraps the circular window mid-row.
      const std::int64_t cap = p.role == AguRole::kData
                                   ? design.config.data_buffer_bytes
                                   : design.config.weight_buffer_bytes;
      if (iv.lo < 0) {
        err(loc, "stream pattern reaches negative buffer offset " +
                 I64(iv.lo));
        continue;
      }
      std::int64_t row_end = 0;
      if (!MulAdd(p.x_length - 1, std::max<std::int64_t>(p.stride, 0),
                  p.start_addr, &row_end) ||
          __builtin_add_overflow(row_end, p.beat_bytes, &row_end)) {
        err(loc, "stream row arithmetic wraps 64-bit space");
        continue;
      }
      if (row_end > cap)
        note(loc, "stream row of " + I64(row_end - p.start_addr) +
                  " bytes cycles the " + I64(cap) +
                  "-byte circular buffer window more than once");
    }
  }
}

// ---------------------------------------------------------------------
// Rule 2: mem.layout
// ---------------------------------------------------------------------
void CheckMemLayout(const Network& net, const AcceleratorDesign& design,
                    AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleMemLayout, loc, msg);
  };
  const auto& regions = design.memory_map.regions();
  if (regions.empty()) {
    err("memory_map", "no regions mapped");
    return;
  }
  const std::int64_t align = std::max<std::int64_t>(
      design.config.memory_port_elems * design.config.ElementBytes(), 1);
  std::set<std::string> names;
  for (const MemoryRegion& r : regions) {
    const std::string loc = "memory_map/" + r.name;
    if (r.bytes <= 0) err(loc, "region has " + I64(r.bytes) + " bytes");
    if (r.base < 0) err(loc, "region base " + I64(r.base) + " is negative");
    if (r.base % align != 0)
      err(loc, "base " + I64(r.base) + " breaks the " + I64(align) +
               "-byte port alignment");
    if (r.bytes % align != 0)
      err(loc, "size " + I64(r.bytes) + " breaks the " + I64(align) +
               "-byte port alignment");
    if (!names.insert(r.name).second)
      err(loc, "duplicate region name");
  }
  // Overlap scan over the base-sorted view.
  std::vector<const MemoryRegion*> sorted;
  sorted.reserve(regions.size());
  for (const MemoryRegion& r : regions) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MemoryRegion* a, const MemoryRegion* b) {
                     return a->base < b->base;
                   });
  std::int64_t max_end = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    max_end = std::max(max_end, sorted[i]->end());
    if (i + 1 < sorted.size() && sorted[i]->end() > sorted[i + 1]->base)
      err("memory_map/" + sorted[i]->name,
          "overlaps region '" + sorted[i + 1]->name + "' ([" +
              I64(sorted[i]->base) + ", " + I64(sorted[i]->end()) +
              ") vs base " + I64(sorted[i + 1]->base) + ")");
  }
  if (design.memory_map.total_bytes() != max_end)
    err("memory_map", "recorded total of " +
                          I64(design.memory_map.total_bytes()) +
                          " bytes disagrees with the last region end " +
                          I64(max_end));
  // Weight regions must be sized for exactly the layer's parameter
  // count: smaller underflows the decode, larger leaves trailing bytes
  // beyond the port-alignment padding that DecodeWeights would have to
  // silently skip.
  const std::int64_t elem_bytes = design.config.ElementBytes();
  for (const IrLayer* layer : net.ComputeLayers()) {
    const LayerStats stats = ComputeLayerStats(*layer);
    if (stats.weight_count <= 0 ||
        !design.memory_map.HasWeights(layer->name()))
      continue;
    const MemoryRegion& r = design.memory_map.Weights(layer->name());
    const std::int64_t needed = stats.weight_count * elem_bytes;
    const std::int64_t padded = (needed + align - 1) / align * align;
    if (r.bytes < needed)
      err("memory_map/" + r.name,
          "weight region holds " + I64(r.bytes) + " bytes but layer '" +
              layer->name() + "' needs " + I64(needed));
    else if (r.bytes > padded)
      err("memory_map/" + r.name,
          "weight region holds " + I64(r.bytes) + " bytes but layer '" +
              layer->name() + "' needs only " + I64(needed) + " (" +
              I64(padded) + " after port alignment) — trailing bytes "
              "would decode as garbage");
  }
}

// ---------------------------------------------------------------------
// Rule 2b: mem.capacity
// ---------------------------------------------------------------------
void CheckMemCapacity(const AcceleratorDesign& design,
                      AnalysisReport& report) {
  // The whole map is allocated up front as the DRAM image, so an
  // oversized one is rejected here, not discovered as a failed
  // multi-gigabyte allocation (or overflowed cycle counts) later.
  const std::int64_t total = design.memory_map.total_bytes();
  if (total > design.config.dram_bytes)
    report.Add(Severity::kError, kRuleMemCapacity, "memory_map",
               "memory map needs " + I64(total) + " bytes but the board "
               "DRAM holds " + I64(design.config.dram_bytes));
}

// ---------------------------------------------------------------------
// Rule 3: sched.hazard
// ---------------------------------------------------------------------
void CheckSchedHazards(const Network& net, const AcceleratorDesign& design,
                       AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleSchedHazard, loc, msg);
  };
  const auto& entries = design.schedule.entries;
  if (entries.empty()) {
    err("schedule", "empty schedule");
    return;
  }
  std::map<int, const IrLayer*> compute;
  for (const IrLayer* layer : net.ComputeLayers()) compute[layer->id] = layer;
  std::map<int, const AguPattern*> patterns;
  for (const AguPattern& p : design.agu_program.patterns) patterns[p.id] = &p;

  std::map<int, std::size_t> first_entry;  // layer_id -> first state
  std::map<int, std::size_t> last_entry;   // layer_id -> last state
  std::map<int, int> armed;                // pattern id -> arming count
  // Producer chaining: each layer consumes the previous layer's consumer
  // (the data buffer ahead of the first layer).
  DatapathPort previous_consumer = DatapathPort::kDataBuffer;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    const std::string loc = "schedule/state:" + std::to_string(i);
    const std::string name = LayerNameOrId(net, e.layer_id);
    if (compute.find(e.layer_id) == compute.end())
      err(loc, "executes '" + name + "', which is not a compute layer");
    if (!first_entry.emplace(e.layer_id, i).second)
      err(loc, "layer '" + name + "' executes again (first at state " +
               std::to_string(first_entry[e.layer_id]) +
               "): its folds replay (double-compute)");
    last_entry[e.layer_id] = i;
    if (e.producer != previous_consumer)
      err(loc, "producer '" + DatapathPortName(e.producer) +
               "' breaks the dataflow chain (previous consumer is '" +
               DatapathPortName(previous_consumer) + "')");
    previous_consumer = e.consumer;
    for (int pattern_id : e.pattern_ids) {
      const auto pattern = patterns.find(pattern_id);
      if (pattern == patterns.end()) {
        err(loc, "triggers unknown AGU pattern id " +
                 std::to_string(pattern_id));
        continue;
      }
      if (pattern->second->layer_id != e.layer_id)
        err(loc, "triggers pattern " + std::to_string(pattern_id) +
                 " of layer '" +
                 LayerNameOrId(net, pattern->second->layer_id) +
                 "' from layer '" + name + "'");
      ++armed[pattern_id];
    }
  }

  // Every compute layer executes, and only after its producers' final
  // writes (temporal folding legality).
  for (const auto& [id, layer] : compute) {
    const auto mine = first_entry.find(id);
    if (mine == first_entry.end()) {
      err("schedule", "layer '" + layer->name() +
                      "' never executes (no schedule entry)");
      continue;
    }
    for (int producer_id : layer->input_ids) {
      const auto produced = last_entry.find(producer_id);
      if (produced == last_entry.end()) continue;  // network input blob
      if (produced->second >= mine->second)
        err("schedule/state:" + std::to_string(mine->second),
            "layer '" + layer->name() + "' reads the blob of '" +
                LayerNameOrId(net, producer_id) + "' at state " +
                std::to_string(mine->second) +
                " before its final write at state " +
                std::to_string(produced->second));
    }
  }

  // Every AGU pattern must arm exactly once: never firing leaves a
  // transfer dead; firing twice replays a completed sweep.
  for (const auto& [id, pattern] : patterns) {
    const int count = armed.count(id) ? armed[id] : 0;
    if (count != 1)
      err("agu/pattern:" + std::to_string(id),
          "pattern arms " + std::to_string(count) +
              " time(s) across the schedule (must be exactly 1)");
  }
}

// ---------------------------------------------------------------------
// Rule 4: fold.coverage
// ---------------------------------------------------------------------
void CheckFoldCoverage(const Network& net, const AcceleratorDesign& design,
                       AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleFoldCoverage, loc, msg);
  };
  const AcceleratorConfig& config = design.config;
  std::map<int, const LayerFold*> planned;
  for (const LayerFold& fold : design.fold_plan.folds) {
    const std::string loc = "fold/" + fold.layer_name;
    if (!planned.emplace(fold.layer_id, &fold).second)
      err(loc, "layer folded twice");
    if (fold.segments < 1 || fold.lanes_used < 1 ||
        fold.parallel_units < 1) {
      err(loc, "degenerate fold (segments " + I64(fold.segments) +
               ", lanes " + I64(fold.lanes_used) + ", units " +
               I64(fold.parallel_units) + ")");
      continue;
    }
    std::int64_t pool_lanes = 1;
    switch (fold.pool) {
      case LanePool::kMac: pool_lanes = config.TotalLanes(); break;
      case LanePool::kPooling: pool_lanes = config.pooling_lanes; break;
      case LanePool::kActivation:
        pool_lanes = config.activation_lanes;
        break;
      case LanePool::kNone: pool_lanes = 1; break;
    }
    if (fold.lanes_used > pool_lanes)
      err(loc, "grants " + I64(fold.lanes_used) + " lanes but the " +
               LanePoolName(fold.pool) + " pool has only " +
               I64(pool_lanes));
    if (fold.pool == LanePool::kMac) {
      // Spatial folding legality: the segments must partition the
      // layer's units — enough slots to cover all of them, and no
      // fully-redundant trailing slot recomputing covered units.
      if (fold.segments * fold.lanes_used < fold.parallel_units)
        err(loc, "fold gap: " + I64(fold.segments) + " segments x " +
                 I64(fold.lanes_used) + " lanes cover only " +
                 I64(fold.segments * fold.lanes_used) + " of " +
                 I64(fold.parallel_units) + " units");
      if ((fold.segments - 1) * fold.lanes_used >= fold.parallel_units)
        err(loc, "fold overlap: segment " + I64(fold.segments - 1) +
                 " re-computes units already covered by earlier segments");
    } else if (fold.segments != 1) {
      err(loc, LanePoolName(fold.pool) +
               "-pool layers stream in one data-driven pass, not " +
               I64(fold.segments) + " segments");
    }
    if (fold.pool == LanePool::kMac) {
      if (fold.total_ops != fold.parallel_units * fold.unit_work)
        err(loc, "total_ops " + I64(fold.total_ops) +
                 " disagrees with units x unit_work = " +
                 I64(fold.parallel_units * fold.unit_work));
    } else {
      // Non-MAC layers fold the serialisation factor into unit_work
      // (segments stays 1), so the recorded total relates through it.
      const std::int64_t serial =
          CeilDiv(fold.parallel_units, fold.lanes_used);
      if (fold.parallel_units * fold.unit_work != fold.total_ops * serial)
        err(loc, "total_ops " + I64(fold.total_ops) +
                 " disagrees with the lane-folded unit_work (units x "
                 "unit_work = " + I64(fold.parallel_units * fold.unit_work) +
                 ", serialisation factor " + I64(serial) + ")");
    }
  }
  // The schedule runs each layer on the block whose lanes it was
  // granted.  Entries without a fold are reported below or by
  // sched.hazard.
  for (const ScheduleEntry& e : design.schedule.entries) {
    const auto fold = planned.find(e.layer_id);
    if (fold == planned.end()) continue;
    const DatapathPort want = ConsumerPortFor(*fold->second);
    if (e.consumer != want)
      err("fold/" + fold->second->layer_name,
          "folded onto '" + DatapathPortName(want) +
              "' but the schedule executes it on '" +
              DatapathPortName(e.consumer) + "'");
  }
  for (const IrLayer* layer : net.ComputeLayers())
    if (planned.find(layer->id) == planned.end())
      err("fold/" + layer->name(), "compute layer has no fold entry");
}

// ---------------------------------------------------------------------
// Rule 5: buffer.capacity
// ---------------------------------------------------------------------
void CheckBufferCapacity(const AcceleratorDesign& design,
                         AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleBufferCapacity, loc, msg);
  };
  const auto warn = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kWarning, kRuleBufferCapacity, loc, msg);
  };
  const std::int64_t capacity = design.config.data_buffer_bytes;
  if (design.buffer_plan.data_buffer_bytes != capacity)
    err("buffer_plan", "planned for a " +
                           I64(design.buffer_plan.data_buffer_bytes) +
                           "-byte buffer but the datapath allocates " +
                           I64(capacity));
  const std::int64_t elem = design.config.ElementBytes();
  for (const BufferPlanEntry& e : design.buffer_plan.entries) {
    const std::string loc = "buffer/" + e.layer_name;
    if (e.tile_bytes < 1)
      err(loc, "tile of " + I64(e.tile_bytes) + " bytes");
    const BufferSlot* slots[] = {&e.ping, &e.pong, &e.out_stage};
    for (const BufferSlot* slot : slots) {
      if (slot->base < 0 || slot->bytes < 1 || slot->end() > capacity)
        err(loc, "slot '" + slot->name + "' [" + I64(slot->base) + ", " +
                 I64(slot->end()) + ") escapes the " + I64(capacity) +
                 "-byte data buffer");
    }
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b)
        if (slots[a]->base < slots[b]->end() &&
            slots[b]->base < slots[a]->end())
          err(loc, "slots '" + slots[a]->name + "' and '" +
                   slots[b]->name + "' overlap");
    if (e.tile_bytes > e.ping.bytes || e.tile_bytes > e.pong.bytes)
      err(loc, "tile of " + I64(e.tile_bytes) +
               " bytes overflows its ping/pong slot (" +
               I64(e.ping.bytes) + "/" + I64(e.pong.bytes) + " bytes)");

    // Cross-check against the data layout: a single Method-1 tile that
    // cannot fit a slot forces mid-tile re-streaming from DRAM.
    for (const DataLayoutPlan::Entry& lay : design.layout.entries) {
      if (lay.layer_id != e.layer_id) continue;
      const std::int64_t tile_unit =
          lay.input_layout.tile_h * lay.input_layout.tile_w * elem;
      if (tile_unit > e.ping.bytes)
        warn(loc, "one " + I64(tile_unit) + "-byte layout tile exceeds "
                  "the " + I64(e.ping.bytes) + "-byte slot "
                  "(mid-tile re-streaming)");
    }
  }
}

// ---------------------------------------------------------------------
// Rule 6: conn.ports
// ---------------------------------------------------------------------
void CheckConnectionPorts(const AcceleratorDesign& design,
                          AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleConnPorts, loc, msg);
  };
  // Which port endpoints actually have instantiated blocks behind them.
  std::set<DatapathPort> instantiated{DatapathPort::kDataBuffer};
  for (const BlockInstance& block : design.blocks) {
    switch (block.config.type) {
      case BlockType::kSynergyNeuron:
        instantiated.insert(DatapathPort::kSynergyArray);
        break;
      case BlockType::kAccumulator:
        instantiated.insert(DatapathPort::kAccumulator);
        break;
      case BlockType::kPoolingUnit:
        instantiated.insert(DatapathPort::kPoolingUnit);
        break;
      case BlockType::kActivationUnit:
        instantiated.insert(DatapathPort::kActivationUnit);
        break;
      case BlockType::kClassifier:
        instantiated.insert(DatapathPort::kClassifier);
        break;
      case BlockType::kConnectionBox:
        instantiated.insert(DatapathPort::kConnectionBox);
        break;
      default:
        break;
    }
  }

  const auto& entries = design.schedule.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    const std::string loc = "connection/state:" + std::to_string(i);
    for (DatapathPort port : {e.producer, e.consumer})
      if (instantiated.find(port) == instantiated.end())
        err(loc, "drives port '" + DatapathPortName(port) +
                 "' but the design instantiates no such block");
    if (e.shift < 0 || e.shift >= design.config.format.total_bits())
      err(loc, "shift " + std::to_string(e.shift) +
               " outside the " +
               std::to_string(design.config.format.total_bits()) +
               "-bit datapath");
    if (e.consumer == DatapathPort::kConnectionBox &&
        (!design.config.has_connection_box ||
         design.config.connection_box_ports < 2))
      err(loc, "routes through the connection box but the configuration "
               "provides none");
  }
}

// ---------------------------------------------------------------------
// Rule 7: lut.domain
// ---------------------------------------------------------------------

/// Reference monotonicity direction over the spec's domain: +1
/// non-decreasing, -1 non-increasing.
int LutDirection(const ApproxLutSpec& spec) {
  switch (spec.function) {
    case LutFunction::kSigmoid:
    case LutFunction::kTanh:
    case LutFunction::kExp:
      return 1;
    case LutFunction::kRecip:
    case LutFunction::kLrnPow:
      // Decreasing on the positive domain the generator samples.
      return spec.in_min > 0.0 ? -1 : 0;
  }
  return 0;
}

void CheckLutDomains(const Network& net, const AcceleratorDesign& design,
                     const VerifyOptions& options, AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleLutDomain, loc, msg);
  };
  const auto warn = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kWarning, kRuleLutDomain, loc, msg);
  };

  std::map<LutFunction, int> have;
  for (const ApproxLutSpec& spec : design.lut_specs)
    ++have[spec.function];
  for (LutFunction fn : RequiredLutFunctions(net)) {
    if (have.find(fn) == have.end())
      err("lut/" + LutFunctionName(fn),
          "network requires this function but the design generates no "
          "Approx LUT for it");
    else if (have[fn] > 1)
      err("lut/" + LutFunctionName(fn),
          std::to_string(have[fn]) + " tables generated for one function");
  }

  for (const ApproxLutSpec& spec : design.lut_specs) {
    const std::string loc = "lut/" + LutFunctionName(spec.function);
    if (!(spec.in_min < spec.in_max)) {
      err(loc, "empty input domain [" + std::to_string(spec.in_min) +
               ", " + std::to_string(spec.in_max) + "]");
      continue;
    }
    if (spec.entries < 2 || !IsPow2(spec.entries)) {
      err(loc, "entry count " + I64(spec.entries) +
               " is not a power of two >= 2");
      continue;
    }
    if (!(spec.format == design.config.format))
      err(loc, "table format " + spec.format.ToString() +
               " differs from the datapath format " +
               design.config.format.ToString());
    if (spec.entries != design.config.approx_lut_entries)
      warn(loc, "sized at " + I64(spec.entries) +
                " entries against a configured " +
                I64(design.config.approx_lut_entries));
    if (spec.function == LutFunction::kLrnPow && spec.beta <= 0.0)
      err(loc, "non-positive LRN beta " + std::to_string(spec.beta));

    // The input domain is a pure function of (function, config) — the
    // library policy DefaultLutSpec encodes.  A deviating domain still
    // produces a well-formed table, so it is a warning, but it means the
    // table samples a window the generator never chooses (a corrupted
    // record, or a spec edited behind the compiler's back).
    const ApproxLutSpec expected =
        DefaultLutSpec(spec.function, design.config);
    if (spec.in_min != expected.in_min || spec.in_max != expected.in_max)
      warn(loc, "input domain [" + std::to_string(spec.in_min) + ", " +
                std::to_string(spec.in_max) +
                "] deviates from the library policy [" +
                std::to_string(expected.in_min) + ", " +
                std::to_string(expected.in_max) + "] for this function");

    try {
      const ApproxLut lut = ApproxLut::Generate(spec);
      const int direction = LutDirection(spec);
      if (direction != 0) {
        for (std::size_t i = 1; i < lut.table().size(); ++i) {
          const std::int64_t delta = lut.table()[i] - lut.table()[i - 1];
          if (direction * delta < 0) {
            err(loc, "stored table breaks key monotonicity at entry " +
                     std::to_string(i) + " (the interpolator would read "
                     "a reversed segment)");
            break;
          }
        }
      }
    } catch (const Error& e) {
      err(loc, std::string("table generation rejects the spec: ") +
               e.what());
    }

    // Observed dynamic range vs table domain (saturation outside).
    if (options.ranges != nullptr &&
        (spec.function == LutFunction::kSigmoid ||
         spec.function == LutFunction::kTanh)) {
      const double peak =
          static_cast<double>(options.ranges->max_abs_activation);
      if (peak > spec.in_max || -peak < spec.in_min)
        warn(loc, "observed activation magnitude " + std::to_string(peak) +
                  " exceeds the table domain [" +
                  std::to_string(spec.in_min) + ", " +
                  std::to_string(spec.in_max) + "] (keys saturate)");
    }
  }
}

// ---------------------------------------------------------------------
// Rule 8: res.budget
// ---------------------------------------------------------------------
void CheckResourceBudget(const AcceleratorDesign& design,
                         AnalysisReport& report) {
  const auto err = [&](const std::string& loc, const std::string& msg) {
    report.Add(Severity::kError, kRuleResBudget, loc, msg);
  };
  if (design.blocks.empty()) {
    err("blocks", "empty block inventory");
    return;
  }
  std::set<std::string> names;
  const BlockInstance* coordinator = nullptr;
  std::map<AguRole, const BlockInstance*> agus;
  std::map<std::string, const BlockInstance*> buffers;
  for (const BlockInstance& block : design.blocks) {
    const std::string loc = "blocks/" + block.name;
    if (!names.insert(block.name).second)
      err(loc, "duplicate block instance name");
    try {
      ValidateBlockConfig(block.config);
    } catch (const Error& e) {
      err(loc, std::string("library cannot realise this configuration: ") +
               e.what());
    }
    if (block.config.type == BlockType::kCoordinator) coordinator = &block;
    if (block.config.type == BlockType::kAgu)
      agus[block.config.agu_role] = &block;
    if (block.config.type == BlockType::kBufferBank)
      buffers[block.name] = &block;
  }

  // AGU capacity: the reduced hardware template must hold at least the
  // pattern count the compiler emitted for its role.
  for (AguRole role : {AguRole::kMain, AguRole::kData, AguRole::kWeight}) {
    const int emitted = design.agu_program.CountFor(role);
    if (emitted == 0) continue;
    auto it = agus.find(role);
    if (it == agus.end())
      err("blocks/agu_" + AguRoleName(role),
          "program emits " + std::to_string(emitted) +
              " patterns but no AGU instance exists for the role");
    else if (it->second->config.patterns < emitted)
      err("blocks/" + it->second->name,
          "holds " + std::to_string(it->second->config.patterns) +
              " patterns but the program needs " + std::to_string(emitted));
  }
  if (coordinator == nullptr) {
    err("blocks/coordinator0", "no coordinator instance");
  } else if (coordinator->config.fold_events <
             design.fold_plan.TemporalFolds()) {
    err("blocks/" + coordinator->name,
        "sequences " + std::to_string(coordinator->config.fold_events) +
            " fold events but the plan temporally folds " +
            I64(design.fold_plan.TemporalFolds()) + " layers");
  }
  for (const auto& [name, expected_depth] :
       {std::pair<std::string, std::int64_t>{
            "buffer_data", design.config.data_buffer_bytes},
        {"buffer_weight", design.config.weight_buffer_bytes}}) {
    auto it = buffers.find(name);
    if (it == buffers.end())
      err("blocks/" + name, "buffer bank missing from the inventory");
    else if (it->second->config.depth != expected_depth)
      err("blocks/" + name,
          "bank depth " + I64(it->second->config.depth) +
              " disagrees with the configured " + I64(expected_depth) +
              " bytes");
  }

  // Accounting: the recorded report must re-tally from the inventory,
  // and the total must fit the constraint the design was sized against.
  const ResourceReport retally = TallyResources(design.blocks);
  const ResourceBudget& recorded = design.resources.total;
  if (retally.total.dsp != recorded.dsp ||
      retally.total.lut != recorded.lut ||
      retally.total.ff != recorded.ff ||
      retally.total.bram_bytes != recorded.bram_bytes)
    err("resources", "recorded total " + recorded.ToString() +
                         " is stale; the inventory re-tallies to " +
                         retally.total.ToString());
  if (!design.config.budget.Fits(retally.total))
    err("resources", "inventory uses " + retally.total.ToString() +
                         ", breaking the budget " +
                         design.config.budget.ToString());
}

using RulePass = void (*)(const Network&, const AcceleratorDesign&,
                          const VerifyOptions&, AnalysisReport&);

}  // namespace

AnalysisReport VerifyDesign(const Network& net,
                            const AcceleratorDesign& design,
                            const VerifyOptions& options) {
  AnalysisReport report;
  struct Pass {
    const char* rule;
    RulePass run;
  };
  const Pass passes[] = {
      {kRuleAguBounds,
       [](const Network& n, const AcceleratorDesign& d,
          const VerifyOptions&, AnalysisReport& r) {
         CheckAguBounds(n, d, r);
       }},
      {kRuleMemLayout,
       [](const Network& n, const AcceleratorDesign& d,
          const VerifyOptions&, AnalysisReport& r) {
         CheckMemLayout(n, d, r);
       }},
      {kRuleMemCapacity,
       [](const Network&, const AcceleratorDesign& d, const VerifyOptions&,
          AnalysisReport& r) { CheckMemCapacity(d, r); }},
      {kRuleSchedHazard,
       [](const Network& n, const AcceleratorDesign& d,
          const VerifyOptions&, AnalysisReport& r) {
         CheckSchedHazards(n, d, r);
       }},
      {kRuleFoldCoverage,
       [](const Network& n, const AcceleratorDesign& d,
          const VerifyOptions&, AnalysisReport& r) {
         CheckFoldCoverage(n, d, r);
       }},
      {kRuleBufferCapacity,
       [](const Network&, const AcceleratorDesign& d, const VerifyOptions&,
          AnalysisReport& r) { CheckBufferCapacity(d, r); }},
      {kRuleConnPorts,
       [](const Network&, const AcceleratorDesign& d, const VerifyOptions&,
          AnalysisReport& r) { CheckConnectionPorts(d, r); }},
      {kRuleLutDomain,
       [](const Network& n, const AcceleratorDesign& d,
          const VerifyOptions& o, AnalysisReport& r) {
         CheckLutDomains(n, d, o, r);
       }},
      {kRuleResBudget,
       [](const Network&, const AcceleratorDesign& d, const VerifyOptions&,
          AnalysisReport& r) { CheckResourceBudget(d, r); }},
  };
  for (const Pass& pass : passes) {
    try {
      pass.run(net, design, options, report);
    } catch (const std::exception& e) {
      // A rule that trips over a structurally broken artifact still
      // yields a diagnostic under its own id — the verifier never
      // propagates exceptions out of a pass.
      report.Add(Severity::kError, pass.rule, "verifier",
                 std::string("pass aborted: ") + e.what());
    }
  }
  return report;
}

void VerifyDesignOrThrow(const Network& net,
                         const AcceleratorDesign& design,
                         obs::MetricsRegistry* metrics,
                         const VerifyOptions& options) {
  const AnalysisReport report = VerifyDesign(net, design, options);
  if (metrics != nullptr) {
    metrics->AddCounter("analysis.designs_verified");
    if (report.WarningCount() > 0)
      metrics->AddCounter("analysis.warnings", report.WarningCount());
  }
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::kWarning) continue;
    if (metrics != nullptr) metrics->AddCounter("analysis.rule." + d.rule);
    DB_LOG(kWarn) << "verify[" << d.rule << "] " << d.location << ": "
                  << d.message;
  }
  if (!report.ok())
    DB_THROW("design verification failed for '" << net.name() << "':\n"
             << report.ToText());
}

}  // namespace db::analysis
