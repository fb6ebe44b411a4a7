#include "core/agu_program.h"

#include <sstream>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"
#include "graph/layer_stats.h"

namespace db {

std::string TransferKindName(TransferKind kind) {
  switch (kind) {
    case TransferKind::kLoadInput: return "load_input";
    case TransferKind::kLoadWeights: return "load_weights";
    case TransferKind::kStoreOutput: return "store_output";
    case TransferKind::kStreamData: return "stream_data";
    case TransferKind::kStreamWeights: return "stream_weights";
  }
  return "?";
}

void ExpandPatternInto(const AguPattern& p,
                       std::vector<std::int64_t>& addrs) {
  addrs.clear();
  addrs.reserve(static_cast<std::size_t>(p.x_length * p.y_length));
  std::int64_t row_base = p.start_addr;
  for (std::int64_t y = 0; y < p.y_length; ++y) {
    std::int64_t addr = row_base;
    for (std::int64_t x = 0; x < p.x_length; ++x) {
      addrs.push_back(addr);
      addr += p.stride;
    }
    row_base += p.offset;
  }
}

std::vector<std::int64_t> ExpandPattern(const AguPattern& p) {
  std::vector<std::int64_t> addrs;
  ExpandPatternInto(p, addrs);
  return addrs;
}

std::vector<const AguPattern*> AguProgram::ForLayer(int layer_id) const {
  std::vector<const AguPattern*> out;
  for (const AguPattern& p : patterns)
    if (p.layer_id == layer_id) out.push_back(&p);
  return out;
}

int AguProgram::CountFor(AguRole role) const {
  int n = 0;
  for (const AguPattern& p : patterns)
    if (p.role == role) ++n;
  return n;
}

std::string AguTriggerEvent(int layer_id) {
  return "layer" + std::to_string(layer_id) + "_fold0";
}

std::string AguProgram::ToString() const {
  std::ostringstream os;
  os << StrFormat("  %-4s %-6s %-14s %-16s %10s %6s %6s %8s %8s\n", "id",
                  "role", "kind", "event", "start", "xlen", "ylen",
                  "stride", "offset");
  for (const AguPattern& p : patterns)
    os << StrFormat("  %-4d %-6s %-14s %-16s %10lld %6lld %6lld %8lld "
                    "%8lld\n",
                    p.id, AguRoleName(p.role).c_str(),
                    TransferKindName(p.kind).c_str(),
                    AguTriggerEvent(p.layer_id).c_str(),
                    static_cast<long long>(p.start_addr),
                    static_cast<long long>(p.x_length),
                    static_cast<long long>(p.y_length),
                    static_cast<long long>(p.stride),
                    static_cast<long long>(p.offset));
  return os.str();
}

namespace {

/// Pattern covering a DRAM region as rows of `row_bytes`, fetched in
/// port-width beats.  Covers the region exactly once.
AguPattern RegionPattern(const MemoryRegion& region, std::int64_t row_bytes,
                         std::int64_t beat_bytes) {
  AguPattern p;
  p.start_addr = region.base;
  p.beat_bytes = beat_bytes;
  const std::int64_t padded_row = RoundUp(row_bytes, beat_bytes);
  p.x_length = std::max<std::int64_t>(padded_row / beat_bytes, 1);
  p.stride = beat_bytes;
  p.offset = padded_row;
  p.y_length = std::max<std::int64_t>(
      CeilDiv(region.bytes, padded_row), 1);
  return p;
}

}  // namespace

AguProgram BuildAguProgram(const Network& net,
                           const AcceleratorConfig& config,
                           const FoldPlan& folds,
                           const DataLayoutPlan& layout,
                           const MemoryMap& memory) {
  AguProgram program;
  const std::int64_t elem_bytes = config.ElementBytes();
  const std::int64_t beat = config.memory_port_elems * elem_bytes;
  int next_id = 0;

  auto push = [&](AguPattern p) {
    p.id = next_id++;
    program.patterns.push_back(std::move(p));
  };

  for (const IrLayer* layer : net.ComputeLayers()) {
    const LayerFold& fold = folds.ForLayer(layer->id);
    const DataLayoutPlan::Entry& lay = layout.ForLayer(layer->id);
    // --- main AGU: input tiles from every producer blob's region
    //     (inception/concat layers consume several bottoms) ---
    for (int producer_id : layer->input_ids) {
      const IrLayer& producer = net.layer(producer_id);
      const MemoryRegion& region = memory.Blob(producer.name());
      const std::int64_t tile_elems =
          lay.input_layout.tile_h * lay.input_layout.tile_w;
      AguPattern p = RegionPattern(region, tile_elems * elem_bytes, beat);
      p.role = AguRole::kMain;
      p.kind = TransferKind::kLoadInput;
      p.layer_id = layer->id;
      push(std::move(p));
    }
    // --- main AGU: weights, streamed once per layer ---
    if (memory.HasWeights(layer->name())) {
      const MemoryRegion& region = memory.Weights(layer->name());
      AguPattern p = RegionPattern(region, region.bytes, beat);
      p.role = AguRole::kMain;
      p.kind = TransferKind::kLoadWeights;
      p.layer_id = layer->id;
      push(std::move(p));
    }
    // --- main AGU: outputs back to this layer's blob region ---
    {
      const MemoryRegion& region = memory.Blob(layer->name());
      AguPattern p = RegionPattern(region, region.bytes, beat);
      p.role = AguRole::kMain;
      p.kind = TransferKind::kStoreOutput;
      p.layer_id = layer->id;
      push(std::move(p));
    }
    // --- data AGU: stream operand rows from the on-chip data buffer ---
    {
      AguPattern p;
      p.role = AguRole::kData;
      p.kind = TransferKind::kStreamData;
      p.layer_id = layer->id;
      p.beat_bytes = beat;
      p.start_addr = 0;  // buffer-relative
      // One inner beat per port row of a segment's working set; outer
      // loop walks the fold segments.
      const std::int64_t seg_elems = std::max<std::int64_t>(
          fold.unit_work * fold.lanes_used, 1);
      p.x_length = std::max<std::int64_t>(
          CeilDiv(seg_elems, config.memory_port_elems), 1);
      p.stride = beat;
      p.y_length = fold.segments;
      p.offset = 0;  // segments reuse the buffered tiles in place
      push(std::move(p));
    }
    // --- weight AGU: stream the segment's weight words ---
    if (memory.HasWeights(layer->name())) {
      AguPattern p;
      p.role = AguRole::kWeight;
      p.kind = TransferKind::kStreamWeights;
      p.layer_id = layer->id;
      p.beat_bytes = beat;
      p.start_addr = 0;
      const LayerStats stats = ComputeLayerStats(*layer);
      const std::int64_t per_segment =
          CeilDiv(stats.weight_count, std::max<std::int64_t>(fold.segments,
                                                             1));
      p.x_length = std::max<std::int64_t>(
          CeilDiv(per_segment, config.memory_port_elems), 1);
      p.stride = beat;
      p.y_length = fold.segments;
      p.offset = p.x_length * beat;  // next segment's weights follow
      push(std::move(p));
    }
  }
  return program;
}

}  // namespace db
