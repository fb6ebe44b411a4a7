#include "rtl/netlist.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"

namespace db {
namespace {

/// One (net name, bit range) reference inside an expression.
struct NetRef {
  std::string name;
  BitRange range;
  bool whole = false;  // range not narrowed by a slice/select
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// Declared width of `name` in `module` (memory nets report their
/// element width); 0 when the name is not a declared net or port.
int DeclaredWidth(const VModule& module, const std::string& name) {
  if (const VNet* n = module.FindNet(name)) return n->width;
  if (const VPort* p = module.FindPort(name))
    return ResolvedPortWidth(module, *p);
  return 0;
}

bool IsMemory(const VModule& module, const std::string& name) {
  const VNet* n = module.FindNet(name);
  return n != nullptr && n->depth > 0;
}

/// Clamps a [lo, hi] request against a declared width for bookkeeping;
/// the rtl.width pass reports out-of-range selects exactly.
BitRange Clamp(int lo, int hi, int width) {
  BitRange r;
  r.lo = std::max(0, std::min(lo, width - 1));
  r.hi = std::max(r.lo, std::min(hi, width - 1));
  return r;
}

/// Collects every net reference read by `expr` with the narrowest
/// statically-known bit range.
void CollectReads(const VModule& module, const VExpr& expr,
                  std::vector<NetRef>& out) {
  switch (expr.kind) {
    case VExprKind::kId: {
      const int w = DeclaredWidth(module, expr.text);
      if (w == 0) {
        // Parameters read as constants, not nets; genuinely undeclared
        // names are reported by the elaborator at the statement level.
        if (module.FindParam(expr.text) == nullptr)
          out.push_back({expr.text, {0, 0}, true});
        return;
      }
      out.push_back({expr.text, Clamp(0, w - 1, w), true});
      return;
    }
    case VExprKind::kSlice:
      if (expr.args[0].kind == VExprKind::kId) {
        const std::string& base = expr.args[0].text;
        const int w = DeclaredWidth(module, base);
        if (w > 0) {
          out.push_back({base, Clamp(expr.lsb, expr.msb, w), false});
          return;
        }
      }
      CollectReads(module, expr.args[0], out);
      return;
    case VExprKind::kIndex:
      if (expr.args[0].kind == VExprKind::kId) {
        const std::string& base = expr.args[0].text;
        const int w = DeclaredWidth(module, base);
        if (w > 0) {
          if (IsMemory(module, base) ||
              expr.args[1].kind != VExprKind::kLit) {
            out.push_back({base, Clamp(0, w - 1, w), true});
          } else {
            const int bit = static_cast<int>(expr.args[1].value);
            out.push_back({base, Clamp(bit, bit, w), false});
          }
          CollectReads(module, expr.args[1], out);
          return;
        }
      }
      CollectReads(module, expr.args[0], out);
      CollectReads(module, expr.args[1], out);
      return;
    default:
      for (const VExpr& arg : expr.args) CollectReads(module, arg, out);
      return;
  }
}

/// The written (name, range) of a procedural or continuous lvalue;
/// returns false when the lvalue has no identifier base.
bool LvalueRange(const VModule& module, const VExpr& lhs, NetRef& out) {
  const std::string base = LvalueBase(lhs);
  if (base.empty()) return false;
  const int w = std::max(1, DeclaredWidth(module, base));
  out.name = base;
  switch (lhs.kind) {
    case VExprKind::kSlice:
      out.range = Clamp(lhs.lsb, lhs.msb, w);
      out.whole = false;
      return true;
    case VExprKind::kIndex:
      // Memory-element writes touch one word; bit-selects one bit.  Both
      // are treated as whole-net for driver bookkeeping only when the
      // index is dynamic.
      if (lhs.args[1].kind == VExprKind::kLit &&
          !IsMemory(module, LvalueBase(lhs))) {
        const int bit = static_cast<int>(lhs.args[1].value);
        out.range = Clamp(bit, bit, w);
        out.whole = false;
        return true;
      }
      out.range = Clamp(0, w - 1, w);
      out.whole = true;
      return true;
    case VExprKind::kPart:
      out.range = Clamp(0, w - 1, w);
      out.whole = false;
      return true;
    default:
      out.range = Clamp(0, w - 1, w);
      out.whole = true;
      return true;
  }
}

class Elaborator {
 public:
  explicit Elaborator(const VDesign& design) : design_(design) {}

  Netlist Run() {
    const VModule* top = design_.FindModule(design_.top);
    if (top == nullptr) {
      out_.issues.push_back(
          {"<design>", "top module '" + design_.top + "' is not defined"});
      return std::move(out_);
    }
    ElabModule(*top, "", /*is_top=*/true);
    return std::move(out_);
  }

 private:
  int AddNet(NetInfo info) {
    const int idx = static_cast<int>(out_.nets.size());
    index_[info.path] = idx;
    out_.nets.push_back(std::move(info));
    return idx;
  }

  int Lookup(const std::string& prefix, const std::string& name) const {
    const auto it = index_.find(prefix + name);
    return it == index_.end() ? -1 : it->second;
  }

  void AddLoad(const std::string& prefix, const VModule& m,
               const NetRef& ref, const std::string& where) {
    const int idx = Lookup(prefix, ref.name);
    if (idx < 0) {
      out_.issues.push_back(
          {where, "reference to undeclared net '" + ref.name + "'"});
      return;
    }
    out_.nets[idx].loads.push_back(ref.range);
    (void)m;
  }

  void AddDriver(const std::string& prefix, const NetRef& ref,
                 NetDriver driver, const std::string& where) {
    const int idx = Lookup(prefix, ref.name);
    if (idx < 0) {
      out_.issues.push_back(
          {where, "assignment to undeclared net '" + ref.name + "'"});
      return;
    }
    driver.ranges.push_back(ref.range);
    out_.nets[idx].drivers.push_back(std::move(driver));
  }

  void AddCombEdges(const std::string& prefix,
                    const std::vector<NetRef>& reads,
                    const std::vector<NetRef>& writes) {
    for (const NetRef& w : writes) {
      const int dst = Lookup(prefix, w.name);
      if (dst < 0) continue;
      for (const NetRef& r : reads) {
        const int src = Lookup(prefix, r.name);
        if (src >= 0) out_.comb_edges.push_back({src, dst});
      }
    }
  }

  /// Walks a statement tree: every assignment lvalue joins `writes`,
  /// every rhs and condition read joins `reads`.
  void WalkStmt(const VModule& m, const VStmt& stmt,
                std::vector<NetRef>& reads, std::vector<NetRef>& writes) {
    if (stmt.kind == VStmtKind::kAssign) {
      CollectReads(m, stmt.rhs, reads);
      // A write through a dynamic index also reads the index nets.
      if (stmt.lhs.kind == VExprKind::kIndex)
        CollectReads(m, stmt.lhs.args[1], reads);
      NetRef w;
      if (LvalueRange(m, stmt.lhs, w)) writes.push_back(w);
      return;
    }
    if (stmt.kind == VStmtKind::kIf) CollectReads(m, stmt.cond, reads);
    for (const VStmt& s : stmt.then_stmts) WalkStmt(m, s, reads, writes);
    for (const VStmt& s : stmt.else_stmts) WalkStmt(m, s, reads, writes);
  }

  void ElabModule(const VModule& m, const std::string& prefix,
                  bool is_top) {
    if (std::find(stack_.begin(), stack_.end(), m.name) != stack_.end()) {
      out_.issues.push_back(
          {prefix.empty() ? m.name : prefix,
           "instantiation cycle through module '" + m.name + "'"});
      return;
    }
    stack_.push_back(m.name);

    // Declare every port and net as a node.  Child-instance ports are
    // declared by the recursive call; the binding edges below connect
    // them to this module's nets.
    for (const VPort& p : m.ports) {
      NetInfo info;
      info.path = prefix + p.name;
      info.module = m.name;
      info.width = ResolvedPortWidth(m, p);
      info.is_reg = p.is_reg;
      info.is_port = true;
      info.is_primary_input = is_top && p.dir == PortDir::kInput;
      info.is_primary_output = is_top && p.dir == PortDir::kOutput;
      const int idx = AddNet(std::move(info));
      if (is_top && p.dir == PortDir::kInput) {
        NetDriver d;
        d.kind = NetDriver::Kind::kPrimaryInput;
        d.where = "primary input";
        d.ranges.push_back(Clamp(0, out_.nets[idx].width - 1,
                                 out_.nets[idx].width));
        out_.nets[idx].drivers.push_back(std::move(d));
      }
      if (is_top && p.dir == PortDir::kOutput)
        out_.nets[idx].loads.push_back(
            Clamp(0, out_.nets[idx].width - 1, out_.nets[idx].width));
    }
    for (const VNet& n : m.nets) {
      NetInfo info;
      info.path = prefix + n.name;
      info.module = m.name;
      info.width = n.width;
      info.is_reg = n.is_reg;
      info.is_memory = n.depth > 0;
      AddNet(std::move(info));
    }

    // Continuous assigns.
    for (std::size_t i = 0; i < m.assigns.size(); ++i) {
      const VAssign& a = m.assigns[i];
      const std::string where =
          prefix + m.name + "/assign[" + std::to_string(i) + "]";
      std::vector<NetRef> reads;
      CollectReads(m, a.rhs, reads);
      for (const NetRef& r : reads) AddLoad(prefix, m, r, where);
      NetRef w;
      if (LvalueRange(m, a.lhs, w)) {
        NetDriver d;
        d.kind = NetDriver::Kind::kAssign;
        d.where = where;
        AddDriver(prefix, w, std::move(d), where);
        AddCombEdges(prefix, reads, {w});
      }
    }

    // Always blocks: one driver entity per block per written net.
    for (std::size_t j = 0; j < m.always_blocks.size(); ++j) {
      const VAlways& blk = m.always_blocks[j];
      const std::string where =
          prefix + m.name + "/always[" + std::to_string(j) + "]";
      const bool clocked = StartsWith(blk.sensitivity, "posedge ");
      if (clocked) {
        const std::string clock = blk.sensitivity.substr(8);
        NetRef r{clock, {0, 0}, false};
        AddLoad(prefix, m, r, where);
      }
      std::vector<NetRef> reads;
      std::vector<NetRef> writes;
      for (const VStmt& s : blk.body) WalkStmt(m, s, reads, writes);
      for (const NetRef& r : reads) AddLoad(prefix, m, r, where);

      std::map<std::string, NetDriver> per_net;
      for (const NetRef& w : writes) {
        NetDriver& d = per_net[w.name];
        if (d.ranges.empty()) {
          d.kind = NetDriver::Kind::kAlways;
          d.clocked = clocked;
          d.where = where;
        }
        d.ranges.push_back(w.range);
      }
      for (auto& [name, driver] : per_net) {
        const int idx = Lookup(prefix, name);
        if (idx < 0) {
          out_.issues.push_back(
              {where, "assignment to undeclared net '" + name + "'"});
          continue;
        }
        out_.nets[idx].drivers.push_back(std::move(driver));
      }
      if (!clocked) AddCombEdges(prefix, reads, writes);
    }

    // Instances: declare the child, then connect bindings.
    for (const VInstance& inst : m.instances) {
      const VModule* def = design_.FindModule(inst.module_name);
      const std::string where = prefix + inst.instance_name;
      if (def == nullptr) {
        out_.issues.push_back(
            {where, "instance of undefined module '" + inst.module_name +
                        "'"});
        continue;
      }
      const std::string child_prefix = where + "/";
      ElabModule(*def, child_prefix, /*is_top=*/false);

      for (const VBinding& b : inst.ports) {
        const VPort* formal = def->FindPort(b.formal);
        if (formal == nullptr) {
          out_.issues.push_back(
              {where, "binding of unknown port '" + b.formal + "'"});
          continue;
        }
        const int child = Lookup(child_prefix, formal->name);
        if (child < 0) continue;
        const int child_width = BoundPortWidth(*def, inst, *formal);
        std::vector<NetRef> parent_refs;
        CollectReads(m, b.actual, parent_refs);
        if (formal->dir == PortDir::kInput) {
          NetDriver d;
          d.kind = NetDriver::Kind::kBinding;
          d.where = where + "." + formal->name;
          d.ranges.push_back(Clamp(0, child_width - 1, child_width));
          out_.nets[child].drivers.push_back(std::move(d));
          for (const NetRef& r : parent_refs) {
            AddLoad(prefix, m, r, d.where);
            const int src = Lookup(prefix, r.name);
            if (src >= 0) out_.comb_edges.push_back({src, child});
          }
        } else {
          out_.nets[child].loads.push_back(
              Clamp(0, child_width - 1, child_width));
          NetRef w;
          if (LvalueRange(m, b.actual, w)) {
            NetDriver d;
            d.kind = NetDriver::Kind::kInstanceOutput;
            d.where = where + "." + formal->name;
            AddDriver(prefix, w, std::move(d), d.where);
            const int dst = Lookup(prefix, w.name);
            if (dst >= 0) out_.comb_edges.push_back({child, dst});
          }
        }
      }
    }

    stack_.pop_back();
  }

  const VDesign& design_;
  Netlist out_;
  std::map<std::string, int> index_;
  std::vector<std::string> stack_;
};

bool IsComparisonOrLogical(const std::string& op) {
  static const std::set<std::string> kOps = {"==", "!=", "<",  ">",
                                             "<=", ">=", "&&", "||"};
  return kOps.count(op) > 0;
}

bool IsShift(const std::string& op) {
  return op == "<<" || op == ">>" || op == ">>>";
}

}  // namespace

int Netlist::Find(const std::string& path) const {
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (nets[i].path == path) return static_cast<int>(i);
  return -1;
}

Netlist Elaborate(const VDesign& design) {
  return Elaborator(design).Run();
}

int BoundPortWidth(const VModule& target, const VInstance& inst,
                   const VPort& formal) {
  if (formal.width_param.empty()) return formal.width;
  for (const VBinding& b : inst.params)
    if (b.formal == formal.width_param &&
        b.actual.kind == VExprKind::kLit)
      return static_cast<int>(b.actual.value);
  return ResolvedPortWidth(target, formal);
}

int InferWidth(const VModule& module, const VExpr& expr) {
  switch (expr.kind) {
    case VExprKind::kId:
      return DeclaredWidth(module, expr.text);
    case VExprKind::kLit:
      return expr.width;
    case VExprKind::kSlice:
      return expr.msb >= expr.lsb ? expr.msb - expr.lsb + 1 : 0;
    case VExprKind::kIndex:
      if (expr.args[0].kind == VExprKind::kId &&
          IsMemory(module, expr.args[0].text))
        return DeclaredWidth(module, expr.args[0].text);
      return 1;
    case VExprKind::kPart:
      return expr.width;
    case VExprKind::kConcat: {
      int total = 0;
      for (const VExpr& arg : expr.args) {
        const int w = InferWidth(module, arg);
        if (w == 0) return 0;
        total += w;
      }
      return total;
    }
    case VExprKind::kRepeat: {
      const int w = InferWidth(module, expr.args[0]);
      return w == 0 ? 0 : static_cast<int>(expr.value) * w;
    }
    case VExprKind::kUnary:
      if (expr.text == "~" || expr.text == "-")
        return InferWidth(module, expr.args[0]);
      return 1;  // ! and the reduction operators produce one bit
    case VExprKind::kBinary: {
      if (IsComparisonOrLogical(expr.text)) return 1;
      if (IsShift(expr.text)) return InferWidth(module, expr.args[0]);
      const int wa = InferWidth(module, expr.args[0]);
      const int wb = InferWidth(module, expr.args[1]);
      if (wa == 0) return wb;
      if (wb == 0) return wa;
      return std::max(wa, wb);
    }
    case VExprKind::kTernary: {
      const int wa = InferWidth(module, expr.args[1]);
      const int wb = InferWidth(module, expr.args[2]);
      if (wa == 0) return wb;
      if (wb == 0) return wa;
      return std::max(wa, wb);
    }
    case VExprKind::kParen:
    case VExprKind::kSigned:
      return InferWidth(module, expr.args[0]);
  }
  DB_THROW("unhandled expression kind");
}

}  // namespace db
