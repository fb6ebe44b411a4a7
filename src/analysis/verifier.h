// Whole-design static verifier: proves schedule/AGU/memory-map legality
// of a generated AcceleratorDesign before a single simulated cycle.
//
// The generator's invariants (paper §3.3–§3.4) are only implicit in the
// passes that construct a design; nothing re-checks them once a design
// leaves NN-Gen — a corrupted cache entry or a buggy compiler pass is
// otherwise caught dynamically, by the simulator crashing or a
// differential test diverging.  VerifyDesign re-derives every invariant
// from the design artifacts alone and reports violations through the
// diagnostics engine (analysis/diagnostics.h).
//
// Rule catalogue (ids are stable; see DESIGN.md §8 for the severity
// policy):
//   agu.bounds       every AGU pattern footprint resolves inside its
//                    mapped DRAM region (main role) or the on-chip
//                    buffer window (data/weight roles), with no
//                    degenerate loops and no address wrap
//   mem.layout       memory-map regions are non-empty, port-aligned,
//                    non-overlapping, uniquely named, and consistent
//                    with the recorded total size
//   mem.capacity     the whole memory map fits the board DRAM
//   sched.hazard     every compute layer executes exactly once, after
//                    the layers whose blobs it reads; each layer's
//                    producer is the previous layer's consumer; pattern
//                    triggers arm exactly once and belong to the firing
//                    layer
//   fold.coverage    spatial segments partition each folded layer
//                    exactly (no gap, no double-compute), lane grants
//                    fit the configured pools, and the schedule runs
//                    each layer on the block its lanes come from
//   buffer.capacity  ping/pong/staging slots sit inside the data
//                    buffer, never overlap, and hold the planned tiles
//   conn.ports       the schedule's crossbar settings only drive ports
//                    whose blocks are instantiated, with a shift inside
//                    the datapath width
//   lut.domain       every required Approx LUT exists, covers a
//                    non-empty domain in the datapath format, and its
//                    generated table is key-monotone
//   res.budget       the block inventory re-tallies to the recorded
//                    resource report, fits the constraint budget, and
//                    block parameterisations are library-realisable
#pragma once

#include <string>

#include "analysis/diagnostics.h"
#include "core/generator.h"
#include "core/range_profiler.h"
#include "graph/network.h"

namespace db::analysis {

// Stable rule identifiers (also the `analysis.rule.<id>` metric names).
inline constexpr char kRuleAguBounds[] = "agu.bounds";
inline constexpr char kRuleMemLayout[] = "mem.layout";
inline constexpr char kRuleMemCapacity[] = "mem.capacity";
inline constexpr char kRuleSchedHazard[] = "sched.hazard";
inline constexpr char kRuleFoldCoverage[] = "fold.coverage";
inline constexpr char kRuleBufferCapacity[] = "buffer.capacity";
inline constexpr char kRuleConnPorts[] = "conn.ports";
inline constexpr char kRuleLutDomain[] = "lut.domain";
inline constexpr char kRuleResBudget[] = "res.budget";

struct VerifyOptions {
  /// Observed activation ranges from the calibration profiler; when set,
  /// LUT input domains are additionally checked against the observed
  /// magnitudes (saturation outside the table domain is a warning).
  const RangeProfile* ranges = nullptr;
};

/// Run every rule pass over the design and collect diagnostics.  Never
/// throws: a pass that trips over a structurally broken artifact (e.g. a
/// fold plan missing a layer) converts the failure into an error
/// diagnostic under its own rule id.
AnalysisReport VerifyDesign(const Network& net,
                            const AcceleratorDesign& design,
                            const VerifyOptions& options = {});

/// Gate form: throws db::Error carrying the report text when VerifyDesign
/// finds any error-severity diagnostic.  Warnings pass, each logged.
/// With `metrics`, counts `analysis.designs_verified`,
/// `analysis.warnings` and per-rule `analysis.rule.<id>` warning
/// counters.
void VerifyDesignOrThrow(const Network& net,
                         const AcceleratorDesign& design,
                         obs::MetricsRegistry* metrics = nullptr,
                         const VerifyOptions& options = {});

}  // namespace db::analysis
