// DesignCache: content-addressed memoization of NN-Gen output on disk.
//
// The generator is a pure function of (NetworkDef, DesignConstraint) —
// same script, same constraint, same AcceleratorDesign, byte for byte.
// The cache exploits that: the key is the FNV-1a digest of the pair's
// *canonical* prototxt serialisation (fixed field order, so a reordered
// but semantically identical script hashes the same), and a hit
// rebuilds the previously generated design without running the
// generator's sizing and refit search.
//
// A process generates one design (one model per server, as the board
// holds one accelerator), so there is no in-memory tier: entries live in
// Options::directory, and a *new process* serving the same model warm-
// starts from it and records zero toolchain spans.  Without a directory
// every lookup misses.  An entry is not a copy of the design: it is the
// canonical text, one `key=value` record of the nine AcceleratorConfig
// fields that sizing, refit and tuning choose (kSizedConfigKeys), and an
// FNV-1a64 checksum over both.  A hit checks the checksum and the full
// canonical text — a 64-bit digest can collide, so two keys forged to
// the same digest share one entry file and never alias — re-parses the
// (network, constraint) pair from the key, starts from SizeDatapath,
// overrides the nine fields (each read in its range) and rebuilds the
// design from them: CompileForConfig, BuildRtl, then the RTL and static
// design verifiers as gates.  A corrupt, truncated or out-of-range entry
// is a miss, never an error; one that rebuilds but fails a gate is also
// counted (cluster.cache.verify_reject, warning log).  Either way the
// generator runs again and overwrites the entry.
//
// Observability: every Lookup/GetOrGenerate outcome is one ordinal-tick
// span on the "cluster" track and a cluster.cache.* counter, so traces
// show reuse (cache.disk_hit spans, no toolchain spans) at a glance.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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
  std::int64_t misses = 0;      // generator had to run
  std::int64_t disk_hits = 0;   // rebuilt from the directory
  std::int64_t disk_writes = 0;
};

class DesignCache {
 public:
  struct Options {
    std::string directory;          // empty => every lookup misses
    obs::Tracer* tracer = nullptr;  // spans on the "cluster" track
    obs::MetricsRegistry* metrics = nullptr;  // cluster.cache.* counters
  };

  explicit DesignCache(Options options);

  /// Rebuild `key`'s design from its entry file; empty on a miss.
  std::optional<AcceleratorDesign> Lookup(const DesignKey& key);

  /// Record an insert and, when a directory is configured, write (or
  /// overwrite) `key`'s entry file.
  void Insert(const DesignKey& key, const AcceleratorDesign& design);

  /// The memoized generator: a hit returns the design rebuilt from the
  /// recorded sizing without recording toolchain spans; a miss runs
  /// GenerateAccelerator(net, constraint, toolchain_tracer) and inserts
  /// the result.
  AcceleratorDesign GetOrGenerate(const DesignKey& key, const Network& net,
                                  const DesignConstraint& constraint,
                                  obs::Tracer* toolchain_tracer = nullptr);

  /// Path of a sidecar artifact stored next to `key`'s entry file —
  /// e.g. the DSE tuner persists its frontier report as
  /// `<digest>.<suffix>` so a warm tune invocation can replay the
  /// byte-identical report without re-exploring.  Empty string when no
  /// directory is configured.
  std::string SidecarPath(const DesignKey& key,
                          const std::string& suffix) const;

  const DesignCacheStats& stats() const { return stats_; }

 private:
  std::optional<AcceleratorDesign> LoadFromDisk(const DesignKey& key);
  void StoreToDisk(const DesignKey& key, const AcceleratorDesign& design);
  void Note(const char* outcome, const DesignKey& key);

  Options options_;
  DesignCacheStats stats_;
};

}  // namespace db::cluster
