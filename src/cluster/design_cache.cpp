#include "cluster/design_cache.h"

#include <algorithm>
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

DesignCache::DesignCache() : DesignCache(Options{}) {}

DesignCache::DesignCache(Options options) : options_(std::move(options)) {
  DB_CHECK_MSG(options_.capacity >= 1, "design cache needs capacity >= 1");
}

std::shared_ptr<const AcceleratorDesign> DesignCache::Lookup(
    const DesignKey& key) {
  auto it = FindResident(key);
  if (it != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, it);  // refresh recency
    ++stats_.hits;
    Note("hit", key);
    return it->design;
  }
  if (!options_.directory.empty()) {
    if (auto design = LoadFromDisk(key)) {
      ++stats_.disk_hits;
      Note("disk_hit", key);
      return InsertResident(key, std::move(design));
    }
  }
  ++stats_.misses;
  Note("miss", key);
  return nullptr;
}

std::shared_ptr<const AcceleratorDesign> DesignCache::Insert(
    const DesignKey& key, AcceleratorDesign design) {
  auto shared = std::make_shared<const AcceleratorDesign>(std::move(design));
  ++stats_.inserts;
  Note("insert", key);
  if (!options_.directory.empty()) StoreToDisk(key, *shared);
  return InsertResident(key, std::move(shared));
}

std::shared_ptr<const AcceleratorDesign> DesignCache::GetOrGenerate(
    const DesignKey& key, const Network& net,
    const DesignConstraint& constraint, obs::Tracer* toolchain_tracer) {
  if (auto hit = Lookup(key)) return hit;
  return Insert(key, GenerateAccelerator(net, constraint, toolchain_tracer,
                                         options_.metrics));
}

std::string DesignCache::SidecarPath(const DesignKey& key,
                                     const std::string& suffix) const {
  if (options_.directory.empty()) return std::string();
  return (std::filesystem::path(options_.directory) /
          (DesignKeyHex(key) + "." + suffix))
      .string();
}

DesignCache::LruList::iterator DesignCache::FindResident(
    const DesignKey& key) {
  auto bucket = buckets_.find(key.hash);
  if (bucket == buckets_.end()) return lru_.end();
  for (LruList::iterator it : bucket->second)
    if (it->key.canonical == key.canonical) return it;
  return lru_.end();
}

std::shared_ptr<const AcceleratorDesign> DesignCache::InsertResident(
    const DesignKey& key, std::shared_ptr<const AcceleratorDesign> design) {
  auto it = FindResident(key);
  if (it != lru_.end()) {
    it->design = design;
    lru_.splice(lru_.begin(), lru_, it);
    return design;
  }
  lru_.push_front(Entry{key, design});
  buckets_[key.hash].push_back(lru_.begin());
  while (lru_.size() > options_.capacity) {
    auto last = std::prev(lru_.end());
    auto& bucket = buckets_[last->key.hash];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), last),
                 bucket.end());
    if (bucket.empty()) buckets_.erase(last->key.hash);
    ++stats_.evictions;
    Note("eviction", last->key);
    lru_.pop_back();  // the shared_ptr keeps live users safe
  }
  return design;
}

std::shared_ptr<const AcceleratorDesign> DesignCache::LoadFromDisk(
    const DesignKey& key) {
  std::ifstream in(EntryPath(options_.directory, key), std::ios::binary);
  if (!in) return nullptr;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  // Any flipped, missing or extra byte fails the checksum before a
  // single field is parsed.
  if (bytes.size() < kChecksumBytes || bytes.back() != '\n') return nullptr;
  const std::string_view body =
      std::string_view(bytes).substr(0, bytes.size() - kChecksumBytes);
  if (bytes.compare(body.size(), 16, Hex64(Fnv1a64(body))) != 0)
    return nullptr;
  // A digest collision or a stale file for a changed canonicalisation
  // scheme is a miss, never a wrong design.
  const std::string prefix = key.canonical + std::string(kConfigSeparator);
  if (!StartsWith(body, prefix) || !EndsWith(body, "\n")) return nullptr;
  const std::string_view record =
      body.substr(prefix.size(), body.size() - prefix.size() - 1);
  const std::size_t sep = key.canonical.find(kKeySeparator);
  if (sep == std::string::npos) return nullptr;
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
    if (ConfigRecord(config) != record) return nullptr;
    auto design =
        std::make_shared<AcceleratorDesign>(CompileForConfig(net, config));
    design->rtl = BuildRtl(design->config, design->blocks);
    // The checksum proves the record is what was written, not that it
    // still builds a legal design here: gate the rebuild like every
    // other compile exit, and reject with a diagnostic instead of
    // letting it enter the accelerator pool.
    for (const analysis::AnalysisReport& report :
         {analysis::VerifyRtl(design->rtl),
          analysis::VerifyDesign(net, *design)}) {
      if (report.ok()) continue;
      if (options_.metrics)
        options_.metrics->AddCounter("cluster.cache.verify_reject");
      DB_LOG(kWarn) << "design cache: rejecting on-disk entry "
                    << DesignKeyHex(key) << "\n" << report.ToText();
      return nullptr;  // served like a miss; the generator rebuilds it
    }
    return design;
  } catch (const Error&) {
    return nullptr;  // unreadable or unbuildable record == miss
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
    // Unwritable directory degrades to a memory-only cache.
  }
}

void DesignCache::Note(const char* outcome, const DesignKey& key) {
  if (options_.metrics)
    options_.metrics->AddCounter(std::string("cluster.cache.") + outcome);
  if (!options_.tracer) return;
  const std::string_view what(outcome);
  // Only lookup outcomes become spans; maintenance traffic (inserts,
  // evictions, disk writes) stays counter-only to keep the track legible.
  if (what != "hit" && what != "miss" && what != "disk_hit") return;
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
