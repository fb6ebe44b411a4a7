#include "cluster/design_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>

#include "analysis/rtl_verifier.h"
#include "analysis/verifier.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/rtl_builder.h"

namespace db::cluster {

namespace {

// Separates the two canonical texts inside the key so a network script
// ending where a constraint begins can never splice into the same
// bytes as a different (network, constraint) split.
constexpr std::string_view kKeySeparator = "\n%constraint%\n";

// An entry file is the key's canonical text, kConfigSeparator, the
// config record and a newline, then the FNV-1a64 of everything before
// it as 16 lowercase hex digits and a newline.
constexpr std::string_view kConfigSeparator = "\n%config%\n";
constexpr std::size_t kChecksumBytes = 17;

std::filesystem::path EntryPath(const std::string& directory,
                                const DesignKey& key) {
  return std::filesystem::path(directory) / (DesignKeyHex(key) + ".design");
}

std::string Hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// The nine sized fields as `key=value` pairs in kSizedConfigKeys order.
std::string ConfigRecord(const AcceleratorConfig& config) {
  std::string record;
  for (const SpecKey<AcceleratorConfig>& row : kSizedConfigKeys) {
    if (!record.empty()) record += ',';
    record += row.key;
    record += '=';
    record += std::visit(
        [&](auto member) { return std::to_string(config.*member); },
        row.field);
  }
  return record;
}

// Ranges cover every design the generator and the default tune sweep
// size: at most 448 lanes scaled by up to 200 %, ports of 2..256
// elements with secondary pools of min(port, 16) and connection boxes
// of clamp(port, 2, 32), and buffers below 2^31 bytes.  Lanes stop at
// 2048 because the emitted adder tree is a chain one node per lane
// deep, and the RTL checker walks it recursively (4096 overflows the
// stack of an ASan build); an entry past a range is a miss and is
// regenerated.
constexpr std::int64_t kMaxLanes = std::int64_t{1} << 11;
constexpr std::int64_t kMaxBufferBytes = (std::int64_t{1} << 31) - 1;

}  // namespace

const SpecKey<AcceleratorConfig> kSizedConfigKeys[9] = {
    {"dsp_lanes", &AcceleratorConfig::dsp_lanes, 0, kMaxLanes},
    {"lut_lanes", &AcceleratorConfig::lut_lanes, 0, kMaxLanes},
    {"pooling_lanes", &AcceleratorConfig::pooling_lanes, 0, 16},
    {"activation_lanes", &AcceleratorConfig::activation_lanes, 0, 16},
    {"accumulator_lanes", &AcceleratorConfig::accumulator_lanes, 0,
     kMaxLanes},
    {"connection_box_ports", &AcceleratorConfig::connection_box_ports, 0,
     32},
    {"data_buffer_bytes", &AcceleratorConfig::data_buffer_bytes, 1,
     kMaxBufferBytes},
    {"weight_buffer_bytes", &AcceleratorConfig::weight_buffer_bytes, 1,
     kMaxBufferBytes},
    {"memory_port_elems", &AcceleratorConfig::memory_port_elems, 2, 256},
};

DesignKey MakeDesignKey(const NetworkDef& net,
                        const DesignConstraint& constraint) {
  DesignKey key;
  key.canonical = NetworkDefToPrototxt(net);
  key.canonical += kKeySeparator;
  key.canonical += ConstraintToPrototxt(constraint);
  key.hash = Fnv1a64(key.canonical);
  return key;
}

std::string DesignKeyHex(const DesignKey& key) { return Hex64(key.hash); }

DesignCache::DesignCache(Options options) : options_(std::move(options)) {}

std::optional<AcceleratorDesign> DesignCache::Lookup(const DesignKey& key) {
  if (!options_.directory.empty()) {
    if (std::optional<AcceleratorDesign> design = LoadFromDisk(key)) {
      ++stats_.disk_hits;
      Note("disk_hit", key);
      return design;
    }
  }
  ++stats_.misses;
  Note("miss", key);
  return std::nullopt;
}

void DesignCache::Insert(const DesignKey& key,
                         const AcceleratorDesign& design) {
  Note("insert", key);
  if (!options_.directory.empty()) StoreToDisk(key, design);
}

AcceleratorDesign DesignCache::GetOrGenerate(
    const DesignKey& key, const Network& net,
    const DesignConstraint& constraint, obs::Tracer* toolchain_tracer) {
  if (std::optional<AcceleratorDesign> hit = Lookup(key))
    return *std::move(hit);
  AcceleratorDesign design = GenerateAccelerator(
      net, constraint, toolchain_tracer, options_.metrics);
  Insert(key, design);
  return design;
}

std::string DesignCache::SidecarPath(const DesignKey& key,
                                     const std::string& suffix) const {
  if (options_.directory.empty()) return std::string();
  return (std::filesystem::path(options_.directory) /
          (DesignKeyHex(key) + "." + suffix))
      .string();
}

std::optional<AcceleratorDesign> DesignCache::LoadFromDisk(
    const DesignKey& key) {
  std::ifstream in(EntryPath(options_.directory, key), std::ios::binary);
  if (!in) return std::nullopt;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  // Any flipped, missing or extra byte fails the checksum before a
  // single field is parsed.
  if (bytes.size() < kChecksumBytes || bytes.back() != '\n')
    return std::nullopt;
  const std::string_view body =
      std::string_view(bytes).substr(0, bytes.size() - kChecksumBytes);
  if (bytes.compare(body.size(), 16, Hex64(Fnv1a64(body))) != 0)
    return std::nullopt;
  // A digest collision or a stale file for a changed canonicalisation
  // scheme is a miss, never a wrong design.
  const std::string prefix = key.canonical + std::string(kConfigSeparator);
  if (!StartsWith(body, prefix) || !EndsWith(body, "\n"))
    return std::nullopt;
  const std::string_view record =
      body.substr(prefix.size(), body.size() - prefix.size() - 1);
  const std::size_t sep = key.canonical.find(kKeySeparator);
  if (sep == std::string::npos) return std::nullopt;
  try {
    const std::string_view canonical(key.canonical);
    const std::string_view constraint_text =
        canonical.substr(sep + kKeySeparator.size());
    const Network net =
        Network::Build(ParseNetworkDef(std::string(canonical.substr(0, sep))));
    AcceleratorConfig config = SizeDatapath(
        net, ParseConstraint(std::string(
                 constraint_text.substr(0, constraint_text.find(
                                               kTuneSeparator)))));
    ReadSpec(record, "design cache entry", kSizedConfigKeys, &config);
    // Only the record StoreToDisk writes is an entry: all nine fields,
    // in order, each once, in canonical spelling.
    if (ConfigRecord(config) != record) return std::nullopt;
    AcceleratorDesign design = CompileForConfig(net, config);
    design.rtl = BuildRtl(design.config, design.blocks);
    // The checksum proves the record is what was written, not that it
    // still builds a legal design here: gate the rebuild like every
    // other compile exit, and reject with a diagnostic instead of
    // letting it enter the accelerator pool.
    for (const analysis::AnalysisReport& report :
         {analysis::VerifyRtl(design.rtl),
          analysis::VerifyDesign(net, design)}) {
      if (report.ok()) continue;
      if (options_.metrics)
        options_.metrics->AddCounter("cluster.cache.verify_reject");
      DB_LOG(kWarn) << "design cache: rejecting on-disk entry "
                    << DesignKeyHex(key) << "\n" << report.ToText();
      return std::nullopt;  // a miss: the generator rebuilds it
    }
    return design;
  } catch (const Error&) {
    return std::nullopt;  // unreadable or unbuildable record == miss
  }
}

void DesignCache::StoreToDisk(const DesignKey& key,
                              const AcceleratorDesign& design) {
  try {
    std::filesystem::create_directories(options_.directory);
    std::string bytes = key.canonical;
    bytes += kConfigSeparator;
    bytes += ConfigRecord(design.config);
    bytes += '\n';
    bytes += Hex64(Fnv1a64(bytes));
    bytes += '\n';
    std::ofstream out(EntryPath(options_.directory, key),
                      std::ios::binary | std::ios::trunc);
    if (!out) return;  // persistence is best-effort
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (out) {
      ++stats_.disk_writes;
      Note("disk_write", key);
    }
  } catch (const std::exception&) {
    // An unwritable directory only loses the warm start.
  }
}

void DesignCache::Note(const char* outcome, const DesignKey& key) {
  if (options_.metrics)
    options_.metrics->AddCounter(std::string("cluster.cache.") + outcome);
  if (!options_.tracer) return;
  const std::string_view what(outcome);
  // Only lookup outcomes become spans; maintenance traffic (inserts,
  // disk writes) stays counter-only to keep the track legible.
  if (what != "miss" && what != "disk_hit") return;
  const std::int64_t start = options_.tracer->TrackEnd("cluster");
  obs::Span span;
  span.track = "cluster";
  span.name = std::string("cache.") + outcome;
  span.category = "cluster";
  span.start = start;
  span.end = start + 1;
  span.args.emplace_back("design", DesignKeyHex(key));
  options_.tracer->Record(std::move(span));
}

}  // namespace db::cluster
