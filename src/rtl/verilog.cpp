#include "rtl/verilog.h"

#include <sstream>
#include <utility>

#include "common/error.h"

namespace db {
namespace {

std::string Range(int width) {
  if (width <= 1) return "";
  std::ostringstream os;
  os << "[" << width - 1 << ":0] ";
  return os.str();
}

std::string PortRange(const VPort& port) {
  if (!port.width_param.empty()) return "[" + port.width_param + "-1:0] ";
  return Range(port.width);
}

std::string LitDigits(std::int64_t value, char base) {
  DB_CHECK_MSG(value >= 0, "negative literal value");
  std::ostringstream os;
  switch (base) {
    case 'd':
      os << value;
      break;
    case 'h': {
      os << std::uppercase << std::hex << value;
      break;
    }
    case 'b': {
      std::string bits;
      std::uint64_t v = static_cast<std::uint64_t>(value);
      do {
        bits.insert(bits.begin(), static_cast<char>('0' + (v & 1)));
        v >>= 1;
      } while (v != 0);
      os << bits;
      break;
    }
    default:
      DB_THROW("unknown literal base");
  }
  return os.str();
}

/// One-line text of a kAssign or kSeq statement (no indentation).
std::string AssignText(const VStmt& stmt) {
  if (stmt.kind == VStmtKind::kSeq) {
    std::string line;
    for (const VStmt& child : stmt.then_stmts) {
      if (!line.empty()) line += " ";
      line += AssignText(child);
    }
    return line;
  }
  DB_CHECK_MSG(stmt.kind == VStmtKind::kAssign,
               "expected an assignment statement");
  return RenderExpr(stmt.lhs) + (stmt.non_blocking ? " <= " : " = ") +
         RenderExpr(stmt.rhs) + ";";
}

std::string Ind(int depth) { return std::string(2 * depth, ' '); }

void RenderStmtInto(const VStmt& stmt, int depth, const std::string& lead,
                    std::vector<std::string>& out) {
  if (stmt.kind != VStmtKind::kIf) {
    out.push_back(Ind(depth) + lead + AssignText(stmt));
    return;
  }

  const std::string header =
      Ind(depth) + lead + "if (" + RenderExpr(stmt.cond) + ")";
  switch (stmt.then_style) {
    case VBranchStyle::kInline:
      DB_CHECK_MSG(stmt.then_stmts.size() == 1, "inline branch needs one stmt");
      out.push_back(header + " " + AssignText(stmt.then_stmts[0]));
      break;
    case VBranchStyle::kBlock:
      out.push_back(header + " begin");
      for (const VStmt& child : stmt.then_stmts)
        RenderStmtInto(child, depth + 1, "", out);
      break;
    case VBranchStyle::kBlockOwnLine:
      out.push_back(header);
      out.push_back(Ind(depth) + "begin");
      for (const VStmt& child : stmt.then_stmts)
        RenderStmtInto(child, depth + 1, "", out);
      out.push_back(Ind(depth) + "end");
      break;
  }

  // After a "begin" then-branch the else keyword shares the closing "end"
  // line; inline and own-line branches are already closed.
  const std::string chain =
      stmt.then_style == VBranchStyle::kBlock ? "end else " : "else ";
  if (stmt.else_stmts.empty()) {
    if (stmt.then_style == VBranchStyle::kBlock)
      out.push_back(Ind(depth) + "end");
    return;
  }
  if (stmt.else_stmts.size() == 1 &&
      stmt.else_stmts[0].kind == VStmtKind::kIf) {
    RenderStmtInto(stmt.else_stmts[0], depth, chain, out);
    return;
  }
  if (stmt.else_style == VBranchStyle::kInline) {
    DB_CHECK_MSG(stmt.else_stmts.size() == 1, "inline branch needs one stmt");
    out.push_back(Ind(depth) + chain + AssignText(stmt.else_stmts[0]));
    return;
  }
  out.push_back(Ind(depth) + chain + "begin");
  for (const VStmt& child : stmt.else_stmts)
    RenderStmtInto(child, depth + 1, "", out);
  out.push_back(Ind(depth) + "end");
}

}  // namespace

// ---------------------------------------------------------------------
// Expression factories
// ---------------------------------------------------------------------

VExpr VId(std::string name) {
  VExpr e;
  e.kind = VExprKind::kId;
  e.text = std::move(name);
  return e;
}

VExpr VLit(std::int64_t value) {
  VExpr e;
  e.kind = VExprKind::kLit;
  e.value = value;
  e.width = 0;
  return e;
}

VExpr VLit(int width, std::int64_t value, char base) {
  DB_CHECK_MSG(width > 0, "sized literal needs positive width");
  VExpr e;
  e.kind = VExprKind::kLit;
  e.value = value;
  e.width = width;
  e.base = base;
  return e;
}

VExpr VSlice(VExpr base, int msb, int lsb) {
  VExpr e;
  e.kind = VExprKind::kSlice;
  e.msb = msb;
  e.lsb = lsb;
  e.args.push_back(std::move(base));
  return e;
}

VExpr VIndex(VExpr base, VExpr index) {
  VExpr e;
  e.kind = VExprKind::kIndex;
  e.args.push_back(std::move(base));
  e.args.push_back(std::move(index));
  return e;
}

VExpr VPart(VExpr base, VExpr offset, int width) {
  VExpr e;
  e.kind = VExprKind::kPart;
  e.width = width;
  e.args.push_back(std::move(base));
  e.args.push_back(std::move(offset));
  return e;
}

VExpr VConcat(std::vector<VExpr> parts) {
  VExpr e;
  e.kind = VExprKind::kConcat;
  e.args = std::move(parts);
  return e;
}

VExpr VRepeat(std::int64_t count, VExpr arg) {
  VExpr e;
  e.kind = VExprKind::kRepeat;
  e.value = count;
  e.args.push_back(std::move(arg));
  return e;
}

VExpr VUnary(std::string op, VExpr arg) {
  VExpr e;
  e.kind = VExprKind::kUnary;
  e.text = std::move(op);
  e.args.push_back(std::move(arg));
  return e;
}

VExpr VBin(VExpr lhs, std::string op, VExpr rhs) {
  VExpr e;
  e.kind = VExprKind::kBinary;
  e.text = std::move(op);
  e.args.push_back(std::move(lhs));
  e.args.push_back(std::move(rhs));
  return e;
}

VExpr VBinCompact(VExpr lhs, std::string op, VExpr rhs) {
  VExpr e = VBin(std::move(lhs), std::move(op), std::move(rhs));
  e.compact = true;
  return e;
}

VExpr VTernary(VExpr cond, VExpr then_expr, VExpr else_expr) {
  VExpr e;
  e.kind = VExprKind::kTernary;
  e.args.push_back(std::move(cond));
  e.args.push_back(std::move(then_expr));
  e.args.push_back(std::move(else_expr));
  return e;
}

VExpr VParen(VExpr arg) {
  VExpr e;
  e.kind = VExprKind::kParen;
  e.args.push_back(std::move(arg));
  return e;
}

VExpr VSigned(VExpr arg) {
  VExpr e;
  e.kind = VExprKind::kSigned;
  e.args.push_back(std::move(arg));
  return e;
}

std::string RenderExpr(const VExpr& expr) {
  switch (expr.kind) {
    case VExprKind::kId:
      return expr.text;
    case VExprKind::kLit:
      if (expr.width == 0) return LitDigits(expr.value, 'd');
      return std::to_string(expr.width) + "'" + expr.base +
             LitDigits(expr.value, expr.base);
    case VExprKind::kSlice:
      return RenderExpr(expr.args[0]) + "[" + std::to_string(expr.msb) +
             ":" + std::to_string(expr.lsb) + "]";
    case VExprKind::kIndex:
      return RenderExpr(expr.args[0]) + "[" + RenderExpr(expr.args[1]) +
             "]";
    case VExprKind::kPart:
      return RenderExpr(expr.args[0]) + "[" + RenderExpr(expr.args[1]) +
             " +: " + std::to_string(expr.width) + "]";
    case VExprKind::kConcat: {
      std::string out = "{";
      for (std::size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += RenderExpr(expr.args[i]);
      }
      return out + "}";
    }
    case VExprKind::kRepeat: {
      // Appended piecewise (here and for kParen): GCC 12 at -O3 flags a
      // literal + string&& chain with a false-positive -Wrestrict.
      std::string out = "{";
      out += std::to_string(expr.value);
      out += '{';
      out += RenderExpr(expr.args[0]);
      return out + "}}";
    }
    case VExprKind::kUnary:
      return expr.text + RenderExpr(expr.args[0]);
    case VExprKind::kBinary:
      if (expr.compact)
        return RenderExpr(expr.args[0]) + expr.text +
               RenderExpr(expr.args[1]);
      return RenderExpr(expr.args[0]) + " " + expr.text + " " +
             RenderExpr(expr.args[1]);
    case VExprKind::kTernary:
      return RenderExpr(expr.args[0]) + " ? " + RenderExpr(expr.args[1]) +
             " : " + RenderExpr(expr.args[2]);
    case VExprKind::kParen: {
      std::string out = "(";
      out += RenderExpr(expr.args[0]);
      return out + ")";
    }
    case VExprKind::kSigned:
      return "$signed(" + RenderExpr(expr.args[0]) + ")";
  }
  DB_THROW("unhandled expression kind");
}

std::string LvalueBase(const VExpr& expr) {
  switch (expr.kind) {
    case VExprKind::kId:
      return expr.text;
    case VExprKind::kSlice:
    case VExprKind::kIndex:
    case VExprKind::kPart:
      return LvalueBase(expr.args[0]);
    default:
      return "";
  }
}

// ---------------------------------------------------------------------
// Statement factories
// ---------------------------------------------------------------------

VStmt VNonBlocking(VExpr lhs, VExpr rhs) {
  VStmt s;
  s.kind = VStmtKind::kAssign;
  s.lhs = std::move(lhs);
  s.rhs = std::move(rhs);
  s.non_blocking = true;
  return s;
}

VStmt VBlocking(VExpr lhs, VExpr rhs) {
  VStmt s = VNonBlocking(std::move(lhs), std::move(rhs));
  s.non_blocking = false;
  return s;
}

VStmt VIf(VExpr cond, std::vector<VStmt> then_stmts,
          std::vector<VStmt> else_stmts, VBranchStyle then_style,
          VBranchStyle else_style) {
  VStmt s;
  s.kind = VStmtKind::kIf;
  s.cond = std::move(cond);
  s.then_stmts = std::move(then_stmts);
  s.else_stmts = std::move(else_stmts);
  s.then_style = then_style;
  s.else_style = else_style;
  return s;
}

VStmt VSeq(std::vector<VStmt> stmts) {
  VStmt s;
  s.kind = VStmtKind::kSeq;
  s.then_stmts = std::move(stmts);
  return s;
}

std::vector<std::string> RenderStmts(const std::vector<VStmt>& stmts) {
  std::vector<std::string> out;
  for (const VStmt& s : stmts) RenderStmtInto(s, 0, "", out);
  return out;
}

// ---------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------

const VPort* VModule::FindPort(const std::string& port_name) const {
  for (const VPort& p : ports)
    if (p.name == port_name) return &p;
  return nullptr;
}

const VNet* VModule::FindNet(const std::string& net_name) const {
  for (const VNet& n : nets)
    if (n.name == net_name) return &n;
  return nullptr;
}

const VParam* VModule::FindParam(const std::string& param_name) const {
  for (const VParam& p : params)
    if (p.name == param_name) return &p;
  return nullptr;
}

int ResolvedPortWidth(const VModule& module, const VPort& port) {
  if (port.width_param.empty()) return port.width;
  const VParam* param = module.FindParam(port.width_param);
  return param == nullptr ? port.width
                          : static_cast<int>(param->value);
}

const VModule* VDesign::FindModule(const std::string& module_name) const {
  for (const VModule& m : modules)
    if (m.name == module_name) return &m;
  return nullptr;
}

std::string EmitVerilog(const VModule& module) {
  std::ostringstream os;
  if (!module.comment.empty()) {
    std::istringstream lines(module.comment);
    std::string line;
    while (std::getline(lines, line)) os << "// " << line << "\n";
  }
  os << "module " << module.name;
  if (!module.params.empty()) {
    os << " #(\n";
    for (std::size_t i = 0; i < module.params.size(); ++i) {
      os << "  parameter " << module.params[i].name << " = "
         << module.params[i].value;
      os << (i + 1 < module.params.size() ? ",\n" : "\n");
    }
    os << ")";
  }
  os << " (\n";
  for (std::size_t i = 0; i < module.ports.size(); ++i) {
    const VPort& p = module.ports[i];
    os << "  " << (p.dir == PortDir::kInput ? "input  " : "output ")
       << (p.is_reg ? "reg " : "wire ") << PortRange(p) << p.name;
    os << (i + 1 < module.ports.size() ? ",\n" : "\n");
  }
  os << ");\n";

  for (const VNet& n : module.nets) {
    os << "  " << (n.is_reg ? "reg " : "wire ") << Range(n.width) << n.name;
    if (n.depth > 0) os << " [0:" << n.depth - 1 << "]";
    os << ";\n";
  }
  if (!module.nets.empty()) os << "\n";

  for (const VAssign& a : module.assigns)
    os << "  assign " << RenderExpr(a.lhs) << " = " << RenderExpr(a.rhs)
       << ";\n";
  if (!module.assigns.empty()) os << "\n";

  for (const VInstance& inst : module.instances) {
    os << "  " << inst.module_name;
    if (!inst.params.empty()) {
      os << " #(";
      for (std::size_t i = 0; i < inst.params.size(); ++i) {
        os << "." << inst.params[i].formal << "("
           << RenderExpr(inst.params[i].actual) << ")";
        if (i + 1 < inst.params.size()) os << ", ";
      }
      os << ")";
    }
    os << " " << inst.instance_name << " (\n";
    for (std::size_t i = 0; i < inst.ports.size(); ++i) {
      os << "    ." << inst.ports[i].formal << "("
         << RenderExpr(inst.ports[i].actual) << ")";
      os << (i + 1 < inst.ports.size() ? ",\n" : "\n");
    }
    os << "  );\n";
  }
  if (!module.instances.empty()) os << "\n";

  for (const VAlways& a : module.always_blocks) {
    os << "  always @(" << a.sensitivity << ") begin\n";
    for (const std::string& line : RenderStmts(a.body))
      os << "    " << line << "\n";
    os << "  end\n\n";
  }

  os << "endmodule\n";
  return os.str();
}

std::string EmitVerilog(const VDesign& design) {
  DB_CHECK_MSG(!design.modules.empty(), "empty design");
  std::ostringstream os;
  os << "// ------------------------------------------------------------\n";
  os << "// Generated by DeepBurning NN-Gen. Top module: " << design.top
     << "\n";
  os << "// ------------------------------------------------------------\n\n";
  for (const VModule& m : design.modules) os << EmitVerilog(m) << "\n";
  return os.str();
}

}  // namespace db
