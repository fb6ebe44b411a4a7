// RTL static analysis over the elaborated netlist (rtl/netlist.h).
//
// VerifyDesign (analysis/verifier.h) proves schedule/memory legality of
// the *plan*; this suite proves the emitted hardware itself.  VerifyRtl
// checks every module's declarations, elaborates design.rtl into a
// flattened netlist and runs the structural passes on it, reporting
// through the same diagnostics engine (canonical ordering, byte-stable
// text/JSON).  It is the one RTL checker: the generator, the shared
// generator, the DSE winner compile, the design-cache load path and
// `deepburning verify` all run it.
//
// Rule catalogue (ids are stable; see DESIGN.md §10):
//   rtl.drive      every loaded bit has a driver, no two distinct
//                  drivers overlap on a bit, primary inputs are never
//                  driven internally; elaboration failures (undeclared
//                  nets, undefined modules, instantiation cycles)
//                  surface here.  Memories are exempt (externally
//                  initialised ROM images)
//   rtl.width      bottom-up expression width inference: assignment
//                  truncation, out-of-range slices and bit-selects,
//                  unsized literals inside concatenations, instance
//                  binding width mismatches, reversed slice bounds
//   rtl.comb.loop  Tarjan SCC over the combinational edge set (assigns,
//                  always @* blocks, instance bindings); every cycle is
//                  one error listing its member nets
//   rtl.clock      single-clock discipline: sensitivity is `*` or
//                  `posedge <declared net>`, one clock per module,
//                  non-blocking assignments only in clocked blocks,
//                  blocking only in combinational blocks
//   rtl.dead       registers written but never read (warning), dangling
//                  nets (warning), wires driven but never read (note;
//                  silent for instance-output taps).  Ports are exempt:
//                  an unread input port is the instantiator's contract,
//                  not a bug in the module
//   rtl.decl       declaration legality of every module, reachable from
//                  the top or not: legal identifiers (modules, ports,
//                  nets, parameters, instances, every referenced name),
//                  no duplicate names, module definitions or instance
//                  names, port and net widths of at least one bit,
//                  defined width parameters, memories declared reg,
//                  continuous assigns never driving a reg or an input
//                  port, no port bound twice
#pragma once

#include "analysis/diagnostics.h"
#include "obs/metrics.h"
#include "rtl/verilog.h"

namespace db::analysis {

// Stable rule identifiers (also the `analysis.rtl.rule.<id>` metrics).
inline constexpr char kRuleRtlDrive[] = "rtl.drive";
inline constexpr char kRuleRtlWidth[] = "rtl.width";
inline constexpr char kRuleRtlCombLoop[] = "rtl.comb.loop";
inline constexpr char kRuleRtlClock[] = "rtl.clock";
inline constexpr char kRuleRtlDead[] = "rtl.dead";
inline constexpr char kRuleRtlDecl[] = "rtl.decl";

/// Run every rtl.* pass over the design's RTL and collect diagnostics.
/// Never throws: structurally broken RTL becomes error diagnostics.
AnalysisReport VerifyRtl(const VDesign& design);

/// The RTL gate every compile exit passes through.  Runs VerifyRtl and
/// throws db::Error carrying the report text on any error-severity
/// diagnostic; warnings and notes pass, each logged.  With `metrics`,
/// counts `analysis.rtl.designs_verified`, `analysis.rtl.warnings` and
/// per-rule `analysis.rtl.rule.<id>` warning counters.
void VerifyRtlOrThrow(const VDesign& design,
                      obs::MetricsRegistry* metrics = nullptr);

}  // namespace db::analysis
