#include "core/schedule.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace db {

std::string DatapathPortName(DatapathPort port) {
  switch (port) {
    case DatapathPort::kDataBuffer: return "data_buffer";
    case DatapathPort::kSynergyArray: return "synergy_array";
    case DatapathPort::kAccumulator: return "accumulator";
    case DatapathPort::kPoolingUnit: return "pooling_unit";
    case DatapathPort::kActivationUnit: return "activation_unit";
    case DatapathPort::kClassifier: return "classifier";
    case DatapathPort::kConnectionBox: return "connection_box";
  }
  return "?";
}

DatapathPort ConsumerPortFor(const LayerFold& fold) {
  switch (fold.pool) {
    case LanePool::kMac: return DatapathPort::kSynergyArray;
    case LanePool::kPooling: return DatapathPort::kPoolingUnit;
    case LanePool::kActivation: return DatapathPort::kActivationUnit;
    case LanePool::kNone:
      return fold.kind == LayerKind::kClassifier
                 ? DatapathPort::kClassifier
                 : DatapathPort::kConnectionBox;
  }
  return DatapathPort::kSynergyArray;
}

std::string Schedule::ToString(const FoldPlan& folds) const {
  std::ostringstream os;
  os << StrFormat("  %-5s %-16s %-15s -> %-15s %5s %8s  %-22s %s\n",
                  "state", "layer", "producer", "consumer", "shift",
                  "segments", "events", "patterns");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScheduleEntry& e = entries[i];
    const LayerFold& fold = folds.ForLayer(e.layer_id);
    std::string events = AguTriggerEvent(e.layer_id);
    if (fold.segments > 1) events += ".." + std::to_string(fold.segments - 1);
    std::string pats;
    for (std::size_t p = 0; p < e.pattern_ids.size(); ++p) {
      if (p > 0) pats += ",";
      pats += std::to_string(e.pattern_ids[p]);
    }
    os << StrFormat("  %-5zu %-16s %-15s -> %-15s %5d %8lld  %-22s [%s]\n",
                    i, fold.layer_name.c_str(),
                    DatapathPortName(e.producer).c_str(),
                    DatapathPortName(e.consumer).c_str(), e.shift,
                    static_cast<long long>(fold.segments), events.c_str(),
                    pats.c_str());
  }
  return os.str();
}

Schedule BuildSchedule(const Network& net, const FoldPlan& folds,
                       const AguProgram& agu) {
  Schedule schedule;
  DatapathPort previous_consumer = DatapathPort::kDataBuffer;
  for (const IrLayer* layer : net.ComputeLayers()) {
    ScheduleEntry entry;
    entry.layer_id = layer->id;
    entry.producer = previous_consumer;
    entry.consumer = ConsumerPortFor(folds.ForLayer(layer->id));
    // Average pooling with a power-of-two window divides through the
    // shifting latch.
    if (layer->kind() == LayerKind::kPooling &&
        layer->def.pool->method == PoolMethod::kAverage) {
      const std::int64_t window =
          layer->def.pool->kernel_size * layer->def.pool->kernel_size;
      if (IsPow2(window))
        entry.shift = static_cast<int>(
            std::llround(std::log2(static_cast<double>(window))));
    }
    // All of the layer's patterns arm on entry; its segments then run
    // off the armed streaming patterns (their y-loop steps per segment).
    for (const AguPattern* p : agu.ForLayer(layer->id))
      entry.pattern_ids.push_back(p->id);
    previous_consumer = entry.consumer;
    schedule.entries.push_back(std::move(entry));
  }
  DB_CHECK_MSG(!schedule.entries.empty(), "empty schedule");
  return schedule;
}

}  // namespace db
