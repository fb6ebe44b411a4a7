// DesignCache: content-addressed memoization of NN-Gen output.
//
// The generator is a pure function of (NetworkDef, DesignConstraint) —
// same script, same constraint, same AcceleratorDesign, byte for byte.
// The cache exploits that: the key is the FNV-1a digest of the pair's
// *canonical* prototxt serialisation (fixed field order, so a reordered
// but semantically identical script hashes the same), and a memory hit
// returns the previously generated design — schedule, buffer plan, AGU
// programs, memory-image layout, RTL — without running a single
// generator phase.
//
// A 64-bit digest can collide, so the digest only selects a bucket; the
// full canonical string is compared before a hit is declared.  Distinct
// networks that forge the same hash coexist in one bucket and never
// alias (tested by construction in cluster_test).
//
// Entries are shared_ptr<const AcceleratorDesign>: hits hand out the
// same immutable object to every replica, and eviction cannot free a
// design a caller still runs on.  Eviction is LRU over a fixed
// capacity.
//
// With Options::directory set, the cache also persists entries to disk
// and warm-starts from it, so a *new process* serving the same model
// skips the generator's sizing and refit search and records zero
// toolchain spans.  An entry is not a copy of the design: it is the
// canonical text, one `key=value` record of the nine AcceleratorConfig
// fields that sizing, refit and tuning choose (kSizedConfigKeys), and an
// FNV-1a64 checksum over both.  A disk hit checks the checksum and the
// canonical text, re-parses the (network, constraint) pair from the
// key, starts from SizeDatapath, overrides the nine fields (each read
// in its range) and rebuilds the design from them: CompileForConfig,
// BuildRtl, then the RTL and static design verifiers as gates.  A
// corrupt, truncated or out-of-range entry is a miss, never an error;
// one that rebuilds but fails a gate is also counted
// (cluster.cache.verify_reject, warning log).  Either way the generator
// runs again and overwrites the entry.
//
// Observability: every Lookup/GetOrGenerate outcome is one ordinal-tick
// span on the "cluster" track and a cluster.cache.* counter, so traces
// show reuse (cache.hit spans, no toolchain spans) at a glance.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "core/generator.h"
#include "frontend/constraint.h"
#include "frontend/network_def.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace db::cluster {

/// Content address of one generator invocation.  `canonical` is the
/// full canonical serialisation (network prototxt + constraint
/// prototxt); `hash` is its FNV-1a digest.  The fields are plain so
/// tests can forge same-hash/different-canonical keys to exercise the
/// collision path.
struct DesignKey {
  std::uint64_t hash = 0;
  std::string canonical;

  bool operator==(const DesignKey& other) const {
    return hash == other.hash && canonical == other.canonical;
  }
};

/// Canonicalize and digest a (network, constraint) pair.  Field order
/// in the authored scripts does not matter: both serialisers emit a
/// fixed order, so any two scripts that parse to the same definition
/// produce the same key.
DesignKey MakeDesignKey(const NetworkDef& net,
                        const DesignConstraint& constraint);

/// The digest as 16 lowercase hex digits (disk file names, span args).
std::string DesignKeyHex(const DesignKey& key);

/// Separates a tuned key's sweep and objective from the (network,
/// constraint) text it extends (dse::MakeTuneKey); a disk hit strips
/// it before parsing the constraint.
inline constexpr std::string_view kTuneSeparator = "\n%tune%\n";

/// The nine AcceleratorConfig fields a disk entry records, in record
/// order, each with the range a loaded value must lie in.  Every other
/// field of a generated or tuned design equals SizeDatapath's.
extern const SpecKey<AcceleratorConfig> kSizedConfigKeys[9];

struct DesignCacheStats {
  std::int64_t hits = 0;        // served from memory
  std::int64_t misses = 0;      // generator had to run
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;   // LRU capacity pressure
  std::int64_t disk_hits = 0;   // served from the persistent directory
  std::int64_t disk_writes = 0;
};

class DesignCache {
 public:
  struct Options {
    std::size_t capacity = 8;       // max resident designs (>= 1)
    std::string directory;          // empty => memory-only
    obs::Tracer* tracer = nullptr;  // spans on the "cluster" track
    obs::MetricsRegistry* metrics = nullptr;  // cluster.cache.* counters
  };

  DesignCache();  // memory-only, default capacity, no observability
  explicit DesignCache(Options options);

  DesignCache(const DesignCache&) = delete;
  DesignCache& operator=(const DesignCache&) = delete;

  /// Memory lookup, then disk (when a directory is configured).
  /// Returns nullptr on miss.  A hit refreshes LRU recency.
  std::shared_ptr<const AcceleratorDesign> Lookup(const DesignKey& key);

  /// Insert (or overwrite) the entry for `key`, persist it when a
  /// directory is configured, and return the shared handle.
  std::shared_ptr<const AcceleratorDesign> Insert(const DesignKey& key,
                                                  AcceleratorDesign design);

  /// The memoized generator: a hit returns the cached design (a disk hit
  /// rebuilds it from the recorded sizing) without recording toolchain
  /// spans; a miss runs
  /// GenerateAccelerator(net, constraint, toolchain_tracer) and caches
  /// the result.
  std::shared_ptr<const AcceleratorDesign> GetOrGenerate(
      const DesignKey& key, const Network& net,
      const DesignConstraint& constraint,
      obs::Tracer* toolchain_tracer = nullptr);

  /// Path of a sidecar artifact stored next to `key`'s entry file —
  /// e.g. the DSE tuner persists its frontier report as
  /// `<digest>.<suffix>` so a warm tune invocation can replay the
  /// byte-identical report without re-exploring.  Empty string when the
  /// cache is memory-only (no directory configured).
  std::string SidecarPath(const DesignKey& key,
                          const std::string& suffix) const;

  const DesignCacheStats& stats() const { return stats_; }
  std::size_t size() const { return lru_.size(); }

 private:
  struct Entry {
    DesignKey key;
    std::shared_ptr<const AcceleratorDesign> design;
  };
  using LruList = std::list<Entry>;

  LruList::iterator FindResident(const DesignKey& key);
  std::shared_ptr<const AcceleratorDesign> InsertResident(
      const DesignKey& key, std::shared_ptr<const AcceleratorDesign> design);
  std::shared_ptr<const AcceleratorDesign> LoadFromDisk(const DesignKey& key);
  void StoreToDisk(const DesignKey& key, const AcceleratorDesign& design);
  void Note(const char* outcome, const DesignKey& key);

  Options options_;
  DesignCacheStats stats_;
  LruList lru_;  // front = most recently used
  // digest -> resident entries with that digest (forged collisions make
  // this a real multimap; full-key compare picks the right one).
  std::map<std::uint64_t, std::vector<LruList::iterator>> buckets_;
};

}  // namespace db::cluster
