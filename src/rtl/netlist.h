// Elaborated-netlist view of a VDesign.
//
// Elaborate() flattens the module hierarchy from the top module down
// through every instance binding into one per-design graph: each net,
// port and child-instance port becomes a node addressed by a flattened
// slash path ("net" in the top module, "instance/net" one level down,
// "a/b/net" for nested instances).  Every node records its drivers and
// loads with the exact bit ranges touched (slice-aware), plus the
// directed combinational edge set (continuous assigns, always @*
// blocks, and instance bindings — clocked blocks contribute no comb
// edge).  The rtl.* analysis passes (analysis/rtl_verifier.h) run on
// this graph instead of re-parsing emitted text.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "rtl/verilog.h"

namespace db {

/// A closed bit range [lo, hi] of a net.
struct BitRange {
  int lo = 0;
  int hi = 0;
};

/// One driving entity of a net.  A whole always block counts as a single
/// driver no matter how many branches write the net; two *distinct*
/// drivers with overlapping ranges are a multiple-drive conflict.
struct NetDriver {
  enum class Kind {
    kPrimaryInput,    // top-level input port (driven by the outside world)
    kAssign,          // continuous assign
    kAlways,          // procedural block (see `clocked`)
    kInstanceOutput,  // output port of a child instance
    kBinding,         // parent binding driving a child input port
  };
  Kind kind = Kind::kAssign;
  bool clocked = false;  // kAlways: posedge block vs @*
  std::string where;     // deterministic label for diagnostics
  std::vector<BitRange> ranges;
};

/// One flattened net (module net, module port, or child-instance port).
struct NetInfo {
  std::string path;    // flattened slash path, e.g. "agu_main/x_cnt"
  std::string module;  // defining module name
  int width = 1;
  bool is_reg = false;
  bool is_memory = false;       // declared with depth > 0 (exempt from
                                // drive analysis: externally initialised)
  bool is_port = false;         // port of its defining module
  bool is_primary_input = false;   // top-module input
  bool is_primary_output = false;  // top-module output
  std::vector<NetDriver> drivers;
  std::vector<BitRange> loads;
};

/// A structural problem found while flattening (reference to an
/// undeclared net, instance of an undefined module, instantiation
/// cycle).  The rtl.drive pass surfaces these as errors.
struct ElabIssue {
  std::string location;
  std::string message;
};

/// The elaborated design graph.
struct Netlist {
  std::vector<NetInfo> nets;  // deterministic traversal order
  /// Directed combinational dependencies, as (src, dst) indices into
  /// `nets`: dst's value combinationally depends on src.
  std::vector<std::pair<int, int>> comb_edges;
  std::vector<ElabIssue> issues;

  /// Index of a net by flattened path; -1 if absent.
  int Find(const std::string& path) const;
};

/// Flatten `design` from its top module.  Never throws: structural
/// problems become ElabIssues and the affected references are skipped.
Netlist Elaborate(const VDesign& design);

/// Effective width of `inst`'s formal port `formal` of module `target`:
/// a literal instance override of the port's width parameter wins over
/// the target module's parameter default.
int BoundPortWidth(const VModule& target, const VInstance& inst,
                   const VPort& formal);

/// Bottom-up width of `expr` against the names declared in `module`,
/// following Verilog-2001 self-determined width rules (binary arithmetic
/// and bitwise take the max operand width, shifts take the left operand,
/// comparisons and reductions are one bit, concats sum their parts).
/// Returns 0 when the width is flexible or unknowable (unsized literals,
/// parameters, undeclared names) — callers skip checks there.
int InferWidth(const VModule& module, const VExpr& expr);

}  // namespace db
