#include "obs/profile.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"

namespace db::obs {
namespace {

double Share(std::int64_t part, std::int64_t whole) {
  return whole > 0
             ? static_cast<double>(part) / static_cast<double>(whole)
             : 0.0;
}

}  // namespace

std::int64_t ProfileReport::TotalDramCycles() const {
  std::int64_t total = 0;
  for (const LayerProfile& l : layers) total += l.dram_cycles;
  return total;
}

std::int64_t ProfileReport::TotalMacCycles() const {
  std::int64_t total = 0;
  for (const LayerProfile& l : layers) total += l.mac_cycles;
  return total;
}

std::int64_t ProfileReport::TotalStallCycles() const {
  std::int64_t total = 0;
  for (const LayerProfile& l : layers) total += l.stall_cycles;
  return total;
}

void ProfileReport::Sort() {
  std::sort(layers.begin(), layers.end(),
            [](const LayerProfile& a, const LayerProfile& b) {
              if (a.total_cycles != b.total_cycles)
                return a.total_cycles > b.total_cycles;
              return a.layer_id < b.layer_id;
            });
}

std::string ProfileReport::ToText() const {
  std::ostringstream os;
  os << StrFormat(
      "profile: %s @ %.0f MHz, %d MAC lanes — %lld cycles (%.4f ms), "
      "%lld DRAM bytes\n",
      model.c_str(), frequency_mhz, lanes,
      static_cast<long long>(total_cycles),
      static_cast<double>(total_cycles) / (frequency_mhz * 1e3),
      static_cast<long long>(total_dram_bytes));
  os << StrFormat("  %-16s %5s %11s %6s %11s %11s %11s %10s %7s %7s %s\n",
                  "layer", "segs", "total_cyc", "share", "dram_cyc",
                  "mac_cyc", "stall_cyc", "dram_bytes", "pe_use",
                  "buf_use", "bound");
  for (const LayerProfile& l : layers)
    os << StrFormat(
        "  %-16s %5lld %11lld %5.1f%% %11lld %11lld %11lld %10lld "
        "%6.1f%% %6.1f%% %s\n",
        l.name.c_str(), static_cast<long long>(l.segments),
        static_cast<long long>(l.total_cycles),
        Share(l.total_cycles, total_cycles) * 100.0,
        static_cast<long long>(l.dram_cycles),
        static_cast<long long>(l.mac_cycles),
        static_cast<long long>(l.stall_cycles),
        static_cast<long long>(l.dram_bytes), l.pe_utilization * 100.0,
        l.buffer_utilization * 100.0, l.Bound());
  const std::int64_t dram = TotalDramCycles();
  const std::int64_t mac = TotalMacCycles();
  const std::int64_t stall = TotalStallCycles();
  os << StrFormat(
      "  attribution: dram %lld (%.1f%%)  mac %lld (%.1f%%)  stall %lld "
      "(%.1f%%)  — design is %s-bound\n",
      static_cast<long long>(dram), Share(dram, total_cycles) * 100.0,
      static_cast<long long>(mac), Share(mac, total_cycles) * 100.0,
      static_cast<long long>(stall), Share(stall, total_cycles) * 100.0,
      dram > mac ? "memory" : "compute");
  return os.str();
}

std::string ProfileReport::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"model\": \"" << EscapeJson(model) << "\",\n"
     << "  \"frequency_mhz\": " << FormatJsonDouble(frequency_mhz) << ",\n"
     << "  \"lanes\": " << lanes << ",\n"
     << "  \"total_cycles\": " << total_cycles << ",\n"
     << "  \"total_dram_bytes\": " << total_dram_bytes << ",\n"
     << "  \"dram_cycles\": " << TotalDramCycles() << ",\n"
     << "  \"mac_cycles\": " << TotalMacCycles() << ",\n"
     << "  \"stall_cycles\": " << TotalStallCycles() << ",\n"
     << "  \"layers\": [";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerProfile& l = layers[i];
    os << (i == 0 ? "" : ",") << "\n    {\"layer_id\": " << l.layer_id
       << ", \"name\": \"" << EscapeJson(l.name) << "\", \"segments\": " << l.segments
       << ", \"total_cycles\": " << l.total_cycles
       << ", \"dram_cycles\": " << l.dram_cycles
       << ", \"mac_cycles\": " << l.mac_cycles
       << ", \"stall_cycles\": " << l.stall_cycles
       << ", \"dram_bytes\": " << l.dram_bytes
       << ", \"refetch_passes\": " << l.refetch_passes
       << ", \"pe_utilization\": " << FormatJsonDouble(l.pe_utilization)
       << ", \"buffer_utilization\": " << FormatJsonDouble(l.buffer_utilization)
       << ", \"bound\": \"" << l.Bound() << "\"}";
  }
  os << (layers.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace db::obs
