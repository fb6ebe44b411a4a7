// Structural Verilog AST and pretty-printer.
//
// NN-Gen's output is synthesisable Verilog-2001; this AST covers exactly
// the constructs the block emitters need.  Expressions and statements
// are typed trees (VExpr / VStmt) rather than raw strings, so the
// netlist elaborator (rtl/netlist.h) and the rtl.* analysis rules
// (analysis/rtl_verifier.h) check structure instead of re-parsing
// emitted text.  Rendering is byte-stable: the same tree
// always prints the same bytes, and the printer preserves the exact
// formatting idioms of the historical string emitters (inline vs block
// if-branches, compact multiplies inside part-selects) so golden RTL
// digests stay meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace db {

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

enum class VExprKind {
  kId,       // identifier
  kLit,      // literal, sized (16'hACE1) or unsized (0)
  kSlice,    // base[msb:lsb] with constant bounds
  kIndex,    // base[index] — bit-select or memory element select
  kPart,     // base[offset +: width] indexed part-select
  kConcat,   // {a, b, ...}
  kRepeat,   // {count{arg}}
  kUnary,    // op arg, e.g. !rst_n
  kBinary,   // lhs op rhs
  kTernary,  // cond ? then : else
  kParen,    // (arg) — explicit grouping; the printer adds no parens
  kSigned,   // $signed(arg)
};

/// One expression node.  Field use depends on `kind`; unused fields keep
/// their defaults.
struct VExpr {
  VExprKind kind = VExprKind::kId;
  std::string text;        // kId: identifier; kUnary/kBinary: operator
  std::int64_t value = 0;  // kLit: value; kRepeat: replication count
  int width = 0;           // kLit: sized width (0 = unsized); kPart: width
  char base = 'd';         // kLit: radix letter 'd' | 'b' | 'h'
  int msb = 0;             // kSlice
  int lsb = 0;             // kSlice
  bool compact = false;    // kBinary: no spaces around the operator
  std::vector<VExpr> args;
};

VExpr VId(std::string name);
VExpr VLit(std::int64_t value);  // unsized decimal literal
VExpr VLit(int width, std::int64_t value, char base = 'd');
VExpr VSlice(VExpr base, int msb, int lsb);
VExpr VIndex(VExpr base, VExpr index);
VExpr VPart(VExpr base, VExpr offset, int width);
VExpr VConcat(std::vector<VExpr> parts);
VExpr VRepeat(std::int64_t count, VExpr arg);
VExpr VUnary(std::string op, VExpr arg);
VExpr VBin(VExpr lhs, std::string op, VExpr rhs);
VExpr VBinCompact(VExpr lhs, std::string op, VExpr rhs);
VExpr VTernary(VExpr cond, VExpr then_expr, VExpr else_expr);
VExpr VParen(VExpr arg);
VExpr VSigned(VExpr arg);

/// Render an expression to Verilog text (deterministic, byte-stable).
std::string RenderExpr(const VExpr& expr);

/// Base identifier of an lvalue expression: kId, or kSlice/kIndex/kPart
/// over an identifier.  Empty string for anything else.
std::string LvalueBase(const VExpr& expr);

// ---------------------------------------------------------------------
// Statements (always-block bodies)
// ---------------------------------------------------------------------

enum class VStmtKind {
  kAssign,  // procedural assignment, blocking or non-blocking
  kIf,      // if / else-if chain
  kSeq,     // several assigns rendered on one line: "a <= 0; b <= 0;"
};

/// How an if/else branch is rendered (semantics are identical):
///   kInline       if (c) stmt;
///   kBlock        if (c) begin ... end
///   kBlockOwnLine if (c) \n begin \n ... \n end
enum class VBranchStyle { kInline, kBlock, kBlockOwnLine };

struct VStmt {
  VStmtKind kind = VStmtKind::kAssign;
  // kAssign
  VExpr lhs;
  VExpr rhs;
  bool non_blocking = true;
  // kIf; an else_stmts holding exactly one kIf renders as "else if".
  VExpr cond;
  std::vector<VStmt> then_stmts;  // also the children of a kSeq
  std::vector<VStmt> else_stmts;
  VBranchStyle then_style = VBranchStyle::kBlock;
  VBranchStyle else_style = VBranchStyle::kBlock;
};

VStmt VNonBlocking(VExpr lhs, VExpr rhs);
VStmt VBlocking(VExpr lhs, VExpr rhs);
VStmt VIf(VExpr cond, std::vector<VStmt> then_stmts,
          std::vector<VStmt> else_stmts = {},
          VBranchStyle then_style = VBranchStyle::kBlock,
          VBranchStyle else_style = VBranchStyle::kBlock);
VStmt VSeq(std::vector<VStmt> stmts);

/// Render a statement list as lines with two-space relative indentation
/// (no trailing newlines); the module printer adds the outer indent.
std::vector<std::string> RenderStmts(const std::vector<VStmt>& stmts);

// ---------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------

enum class PortDir { kInput, kOutput };

/// A module port; width is in bits (1 emits no range).  When
/// `width_param` names a module parameter, the declared range is the
/// symbolic `[<param>-1:0]` and the effective width is the parameter's
/// value (the default, or an instance's override) — `width` then holds
/// the default-value width for tools that need a number.
struct VPort {
  std::string name;
  PortDir dir = PortDir::kInput;
  int width = 1;
  bool is_reg = false;  // output declared as reg
  std::string width_param;

  VPort() = default;
  VPort(std::string name_in, PortDir dir_in, int width_in, bool is_reg_in,
        std::string width_param_in = {})
      : name(std::move(name_in)),
        dir(dir_in),
        width(width_in),
        is_reg(is_reg_in),
        width_param(std::move(width_param_in)) {}
};

/// A Verilog parameter with a default value.
struct VParam {
  std::string name;
  std::int64_t value = 0;
};

/// An internal net; `is_reg` selects reg vs wire; `depth` > 0 declares a
/// memory array (reg [w-1:0] name [0:depth-1]).
struct VNet {
  std::string name;
  int width = 1;
  bool is_reg = false;
  std::int64_t depth = 0;
};

/// A continuous assignment `assign lhs = rhs;`.
struct VAssign {
  VExpr lhs;
  VExpr rhs;
};

/// One port or parameter binding of an instance.
struct VBinding {
  std::string formal;
  VExpr actual;
};

/// A module instantiation.
struct VInstance {
  std::string module_name;
  std::string instance_name;
  std::vector<VBinding> params;
  std::vector<VBinding> ports;
};

/// A clocked or combinational always block with a typed statement body.
struct VAlways {
  std::string sensitivity;  // e.g. "posedge clk" or "*"
  std::vector<VStmt> body;
};

/// One Verilog module.
struct VModule {
  std::string name;
  std::string comment;  // emitted as a header comment
  std::vector<VParam> params;
  std::vector<VPort> ports;
  std::vector<VNet> nets;
  std::vector<VAssign> assigns;
  std::vector<VInstance> instances;
  std::vector<VAlways> always_blocks;

  /// Find a port / net / parameter by name (nullptr if absent).
  const VPort* FindPort(const std::string& name) const;
  const VNet* FindNet(const std::string& name) const;
  const VParam* FindParam(const std::string& name) const;
};

/// Effective width of a port within its defining module: the numeric
/// width, or the named width parameter's default value.
int ResolvedPortWidth(const VModule& module, const VPort& port);

/// A design: a set of modules, the last conventionally being the top.
struct VDesign {
  std::vector<VModule> modules;
  std::string top;

  const VModule* FindModule(const std::string& name) const;
};

/// Render a single module as Verilog text.
std::string EmitVerilog(const VModule& module);

/// Render a whole design (file header + every module).
std::string EmitVerilog(const VDesign& design);

}  // namespace db
