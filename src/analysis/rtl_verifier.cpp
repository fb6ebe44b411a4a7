#include "analysis/rtl_verifier.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "rtl/netlist.h"

namespace db::analysis {
namespace {

std::string Bits(int lo, int hi) {
  if (lo == hi) return "bit " + std::to_string(lo);
  return "bits [" + std::to_string(hi) + ":" + std::to_string(lo) + "]";
}

// -------------------------------------------------------------------
// rtl.drive
// -------------------------------------------------------------------

bool RangesOverlap(const std::vector<BitRange>& a,
                   const std::vector<BitRange>& b) {
  for (const BitRange& x : a)
    for (const BitRange& y : b)
      if (x.lo <= y.hi && y.lo <= x.hi) return true;
  return false;
}

void CheckDrive(const Netlist& netlist, AnalysisReport& report) {
  for (const ElabIssue& issue : netlist.issues)
    report.Add(Severity::kError, kRuleRtlDrive, issue.location,
               issue.message);

  for (const NetInfo& net : netlist.nets) {
    if (net.is_memory) continue;  // ROM images are loaded externally
    if (net.width < 1) continue;  // rtl.decl reports the declaration

    // A primary input is driven by the outside world only.
    if (net.is_primary_input) {
      for (const NetDriver& d : net.drivers)
        if (d.kind != NetDriver::Kind::kPrimaryInput)
          report.Add(Severity::kError, kRuleRtlDrive, net.path,
                     "primary input is driven inside the design by " +
                         d.where);
      continue;
    }

    // Two distinct drivers must not touch the same bit.
    for (std::size_t i = 0; i < net.drivers.size(); ++i)
      for (std::size_t j = i + 1; j < net.drivers.size(); ++j)
        if (RangesOverlap(net.drivers[i].ranges, net.drivers[j].ranges))
          report.Add(Severity::kError, kRuleRtlDrive, net.path,
                     "multiple drivers overlap: " + net.drivers[i].where +
                         " and " + net.drivers[j].where);

    // Every loaded bit needs a driver.
    if (net.loads.empty()) continue;
    std::vector<bool> driven(static_cast<std::size_t>(net.width), false);
    for (const NetDriver& d : net.drivers)
      for (const BitRange& r : d.ranges)
        for (int b = r.lo; b <= r.hi && b < net.width; ++b)
          driven[static_cast<std::size_t>(b)] = true;
    std::vector<bool> loaded(static_cast<std::size_t>(net.width), false);
    for (const BitRange& r : net.loads)
      for (int b = r.lo; b <= r.hi && b < net.width; ++b)
        loaded[static_cast<std::size_t>(b)] = true;
    int span_lo = -1;
    std::vector<std::string> spans;
    for (int b = 0; b <= net.width; ++b) {
      const bool gap = b < net.width &&
                       loaded[static_cast<std::size_t>(b)] &&
                       !driven[static_cast<std::size_t>(b)];
      if (gap && span_lo < 0) span_lo = b;
      if (!gap && span_lo >= 0) {
        spans.push_back(Bits(span_lo, b - 1));
        span_lo = -1;
      }
    }
    if (!spans.empty()) {
      std::string joined;
      for (std::size_t i = 0; i < spans.size(); ++i)
        joined += (i ? ", " : "") + spans[i];
      report.Add(Severity::kError, kRuleRtlDrive, net.path,
                 joined + " loaded but never driven");
    }
  }
}

// -------------------------------------------------------------------
// rtl.width
// -------------------------------------------------------------------

/// Structural checks on one expression tree: reversed or out-of-range
/// selects, unsized literals inside concatenations.
void CheckExpr(const VModule& m, const VExpr& expr,
               const std::string& where, AnalysisReport& report) {
  switch (expr.kind) {
    case VExprKind::kSlice: {
      if (expr.msb < expr.lsb)
        report.Add(Severity::kError, kRuleRtlWidth, where,
                   "slice [" + std::to_string(expr.msb) + ":" +
                       std::to_string(expr.lsb) + "] has msb < lsb");
      if (expr.args[0].kind == VExprKind::kId) {
        const int w = InferWidth(m, expr.args[0]);
        if (w > 0 && expr.msb >= w)
          report.Add(Severity::kError, kRuleRtlWidth, where,
                     "slice " + RenderExpr(expr) + " exceeds the " +
                         std::to_string(w) + "-bit net '" +
                         expr.args[0].text + "'");
      }
      break;
    }
    case VExprKind::kIndex: {
      if (expr.args[0].kind == VExprKind::kId &&
          expr.args[1].kind == VExprKind::kLit) {
        const VNet* n = m.FindNet(expr.args[0].text);
        const std::int64_t limit =
            (n != nullptr && n->depth > 0)
                ? n->depth
                : static_cast<std::int64_t>(InferWidth(m, expr.args[0]));
        if (limit > 0 && expr.args[1].value >= limit)
          report.Add(Severity::kError, kRuleRtlWidth, where,
                     "index " + RenderExpr(expr) + " exceeds '" +
                         expr.args[0].text + "' (limit " +
                         std::to_string(limit) + ")");
      }
      break;
    }
    case VExprKind::kConcat:
    case VExprKind::kRepeat: {
      for (const VExpr& arg : expr.args)
        if (arg.kind == VExprKind::kLit && arg.width == 0)
          report.Add(Severity::kError, kRuleRtlWidth, where,
                     "unsized literal " + std::to_string(arg.value) +
                         " inside a concatenation");
      break;
    }
    default:
      break;
  }
  for (const VExpr& arg : expr.args) CheckExpr(m, arg, where, report);
}

/// Assignment check: the rhs must not be wider than the lhs.  A narrower
/// rhs zero/sign-extends in Verilog and is deliberately not diagnosed
/// (lane products assign a w-bit max-rule expression into a 2w lane).
void CheckAssign(const VModule& m, const VExpr& lhs, const VExpr& rhs,
                 const std::string& where, AnalysisReport& report) {
  CheckExpr(m, lhs, where, report);
  CheckExpr(m, rhs, where, report);
  const int wl = InferWidth(m, lhs);
  const int wr = InferWidth(m, rhs);
  if (wl > 0 && wr > wl)
    report.Add(Severity::kError, kRuleRtlWidth, where,
               "assignment truncates a " + std::to_string(wr) +
                   "-bit expression into the " + std::to_string(wl) +
                   "-bit target " + RenderExpr(lhs));
}

void CheckStmtWidths(const VModule& m, const VStmt& stmt,
                     const std::string& where, AnalysisReport& report) {
  if (stmt.kind == VStmtKind::kAssign) {
    CheckAssign(m, stmt.lhs, stmt.rhs, where, report);
    return;
  }
  if (stmt.kind == VStmtKind::kIf) CheckExpr(m, stmt.cond, where, report);
  for (const VStmt& s : stmt.then_stmts)
    CheckStmtWidths(m, s, where, report);
  for (const VStmt& s : stmt.else_stmts)
    CheckStmtWidths(m, s, where, report);
}

void CheckWidths(const VDesign& design, AnalysisReport& report) {
  for (const VModule& m : design.modules) {
    for (std::size_t i = 0; i < m.assigns.size(); ++i)
      CheckAssign(m, m.assigns[i].lhs, m.assigns[i].rhs,
                  m.name + "/assign[" + std::to_string(i) + "]", report);
    for (std::size_t j = 0; j < m.always_blocks.size(); ++j)
      for (const VStmt& s : m.always_blocks[j].body)
        CheckStmtWidths(m, s,
                        m.name + "/always[" + std::to_string(j) + "]",
                        report);
    for (const VInstance& inst : m.instances) {
      const VModule* def = design.FindModule(inst.module_name);
      if (def == nullptr) continue;  // rtl.drive reports this
      for (const VBinding& b : inst.ports) {
        const VPort* formal = def->FindPort(b.formal);
        if (formal == nullptr) continue;
        const std::string where =
            m.name + "/" + inst.instance_name + "." + b.formal;
        CheckExpr(m, b.actual, where, report);
        const int wa = InferWidth(m, b.actual);
        const int wf = BoundPortWidth(*def, inst, *formal);
        if (wa > 0 && wf > 0 && wa != wf)
          report.Add(Severity::kError, kRuleRtlWidth, where,
                     "binding " + RenderExpr(b.actual) + " (" +
                         std::to_string(wa) + " bits) to " +
                         std::to_string(wf) + "-bit port '" + b.formal +
                         "'");
      }
    }
  }
}

// -------------------------------------------------------------------
// rtl.comb.loop
// -------------------------------------------------------------------

void CheckCombLoops(const Netlist& netlist, AnalysisReport& report) {
  const int n = static_cast<int>(netlist.nets.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  std::set<std::pair<int, int>> seen;
  for (const auto& [src, dst] : netlist.comb_edges)
    if (seen.insert({src, dst}).second)
      adj[static_cast<std::size_t>(src)].push_back(dst);

  // Tarjan strongly-connected components.
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  int next_index = 0;
  std::vector<std::vector<int>> sccs;

  std::function<void(int)> strongconnect = [&](int v) {
    index[static_cast<std::size_t>(v)] = next_index;
    low[static_cast<std::size_t>(v)] = next_index;
    ++next_index;
    stack.push_back(v);
    on_stack[static_cast<std::size_t>(v)] = true;
    for (int w : adj[static_cast<std::size_t>(v)]) {
      if (index[static_cast<std::size_t>(w)] < 0) {
        strongconnect(w);
        low[static_cast<std::size_t>(v)] =
            std::min(low[static_cast<std::size_t>(v)],
                     low[static_cast<std::size_t>(w)]);
      } else if (on_stack[static_cast<std::size_t>(w)]) {
        low[static_cast<std::size_t>(v)] =
            std::min(low[static_cast<std::size_t>(v)],
                     index[static_cast<std::size_t>(w)]);
      }
    }
    if (low[static_cast<std::size_t>(v)] ==
        index[static_cast<std::size_t>(v)]) {
      std::vector<int> scc;
      int w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[static_cast<std::size_t>(w)] = false;
        scc.push_back(w);
      } while (w != v);
      sccs.push_back(std::move(scc));
    }
  };
  for (int v = 0; v < n; ++v)
    if (index[static_cast<std::size_t>(v)] < 0) strongconnect(v);

  for (const std::vector<int>& scc : sccs) {
    bool cyclic = scc.size() > 1;
    if (!cyclic)
      cyclic = seen.count({scc[0], scc[0]}) > 0;  // self-loop
    if (!cyclic) continue;
    std::vector<std::string> members;
    members.reserve(scc.size());
    for (int v : scc)
      members.push_back(netlist.nets[static_cast<std::size_t>(v)].path);
    std::sort(members.begin(), members.end());
    std::string joined;
    for (std::size_t i = 0; i < members.size(); ++i)
      joined += (i ? ", " : "") + members[i];
    report.Add(Severity::kError, kRuleRtlCombLoop, members.front(),
               "combinational loop through: " + joined);
  }
}

// -------------------------------------------------------------------
// rtl.clock
// -------------------------------------------------------------------

void CheckClockedStmts(const VStmt& stmt, bool clocked,
                       const std::string& where, AnalysisReport& report) {
  if (stmt.kind == VStmtKind::kAssign) {
    if (clocked && !stmt.non_blocking)
      report.Add(Severity::kError, kRuleRtlClock, where,
                 "blocking assignment to " + RenderExpr(stmt.lhs) +
                     " in a clocked block");
    if (!clocked && stmt.non_blocking)
      report.Add(Severity::kError, kRuleRtlClock, where,
                 "non-blocking assignment to " + RenderExpr(stmt.lhs) +
                     " in a combinational block");
    return;
  }
  for (const VStmt& s : stmt.then_stmts)
    CheckClockedStmts(s, clocked, where, report);
  for (const VStmt& s : stmt.else_stmts)
    CheckClockedStmts(s, clocked, where, report);
}

void CheckClocks(const VDesign& design, AnalysisReport& report) {
  for (const VModule& m : design.modules) {
    std::string module_clock;
    for (std::size_t j = 0; j < m.always_blocks.size(); ++j) {
      const VAlways& blk = m.always_blocks[j];
      const std::string where =
          m.name + "/always[" + std::to_string(j) + "]";
      bool clocked = false;
      if (blk.sensitivity == "*") {
        clocked = false;
      } else if (blk.sensitivity.rfind("posedge ", 0) == 0 &&
                 blk.sensitivity.size() > 8) {
        clocked = true;
        const std::string clock = blk.sensitivity.substr(8);
        if (m.FindPort(clock) == nullptr && m.FindNet(clock) == nullptr)
          report.Add(Severity::kError, kRuleRtlClock, where,
                     "clock '" + clock + "' is not declared");
        if (module_clock.empty()) {
          module_clock = clock;
        } else if (clock != module_clock) {
          report.Add(Severity::kError, kRuleRtlClock, where,
                     "clocks on '" + clock + "' but the module clocks on '" +
                         module_clock + "'");
        }
      } else {
        report.Add(Severity::kError, kRuleRtlClock, where,
                   "unsupported sensitivity '" + blk.sensitivity +
                       "' (expected '*' or 'posedge <net>')");
        continue;
      }
      for (const VStmt& s : blk.body)
        CheckClockedStmts(s, clocked, where, report);
    }
  }
}

// -------------------------------------------------------------------
// rtl.dead
// -------------------------------------------------------------------

void CheckDead(const Netlist& netlist, AnalysisReport& report) {
  for (const NetInfo& net : netlist.nets) {
    // An unread port is the instantiator's contract, not a module bug.
    if (net.is_port || net.is_memory) continue;
    if (net.drivers.empty() && net.loads.empty()) {
      report.Add(Severity::kWarning, kRuleRtlDead, net.path,
                 "net is never driven and never read");
      continue;
    }
    if (net.loads.empty()) {
      if (net.is_reg) {
        report.Add(Severity::kWarning, kRuleRtlDead, net.path,
                   "register is written but never read");
        continue;
      }
      // Instance-output taps (a child output wired up but unused) are a
      // deliberate idiom; anything else driven-never-read is worth a note.
      const bool all_taps = std::all_of(
          net.drivers.begin(), net.drivers.end(), [](const NetDriver& d) {
            return d.kind == NetDriver::Kind::kInstanceOutput;
          });
      if (!all_taps)
        report.Add(Severity::kNote, kRuleRtlDead, net.path,
                   "wire is driven but never read");
    }
  }
}

// -------------------------------------------------------------------
// rtl.decl
// -------------------------------------------------------------------

bool IsLegalIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name.front())) &&
      name.front() != '_')
    return false;
  for (char c : name)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '$')
      return false;
  return true;
}

void DeclError(const std::string& where, const std::string& message,
               AnalysisReport& report) {
  report.Add(Severity::kError, kRuleRtlDecl, where, message);
}

/// Every identifier an expression references must be legal; an empty
/// one is how a missing operand shows.
void CheckIds(const VExpr& expr, const std::string& where,
              AnalysisReport& report) {
  if (expr.kind == VExprKind::kId && !IsLegalIdentifier(expr.text))
    DeclError(where, "reference '" + expr.text +
                         "' is not a legal identifier", report);
  for (const VExpr& arg : expr.args) CheckIds(arg, where, report);
}

void CheckStmtIds(const VStmt& stmt, const std::string& where,
                  AnalysisReport& report) {
  if (stmt.kind == VStmtKind::kAssign) {
    CheckIds(stmt.lhs, where, report);
    CheckIds(stmt.rhs, where, report);
    return;
  }
  if (stmt.kind == VStmtKind::kIf) CheckIds(stmt.cond, where, report);
  for (const VStmt& s : stmt.then_stmts) CheckStmtIds(s, where, report);
  for (const VStmt& s : stmt.else_stmts) CheckStmtIds(s, where, report);
}

void CheckModuleDecls(const VModule& m, AnalysisReport& report) {
  if (!IsLegalIdentifier(m.name))
    DeclError(m.name, "module name is not a legal identifier", report);

  // Ports, nets and parameters share one namespace.
  std::set<std::string> names;
  auto declare = [&](const std::string& kind, const std::string& name,
                     int width) {
    const std::string where = m.name + "/" + name;
    if (!IsLegalIdentifier(name))
      DeclError(where, kind + " name is not a legal identifier", report);
    if (!names.insert(name).second)
      DeclError(where, "duplicate name", report);
    if (width < 1)
      DeclError(where, kind + " has non-positive width " +
                           std::to_string(width), report);
  };
  for (const VPort& p : m.ports) {
    declare("port", p.name, p.width);
    if (!p.width_param.empty() && m.FindParam(p.width_param) == nullptr)
      DeclError(m.name + "/" + p.name, "width parameter '" +
                    p.width_param + "' is not defined", report);
  }
  for (const VNet& n : m.nets) {
    declare("net", n.name, n.width);
    if (n.depth > 0 && !n.is_reg)
      DeclError(m.name + "/" + n.name, "memory must be a reg", report);
  }
  for (const VParam& p : m.params) declare("parameter", p.name, 1);

  // A continuous assign drives a wire: never a reg, never an input.
  for (std::size_t i = 0; i < m.assigns.size(); ++i) {
    const VAssign& a = m.assigns[i];
    const std::string where = m.name + "/assign[" + std::to_string(i) + "]";
    CheckIds(a.lhs, where, report);
    CheckIds(a.rhs, where, report);
    const std::string base = LvalueBase(a.lhs);
    const VNet* net = m.FindNet(base);
    const VPort* port = m.FindPort(base);
    if ((net != nullptr && net->is_reg) || (port != nullptr && port->is_reg))
      DeclError(where, "assign drives reg '" + base + "'", report);
    if (port != nullptr && port->dir == PortDir::kInput)
      DeclError(where, "assign drives input port '" + base + "'", report);
  }
  for (std::size_t j = 0; j < m.always_blocks.size(); ++j)
    for (const VStmt& s : m.always_blocks[j].body)
      CheckStmtIds(s, m.name + "/always[" + std::to_string(j) + "]",
                   report);

  std::set<std::string> instance_names;
  for (const VInstance& inst : m.instances) {
    const std::string where = m.name + "/" + inst.instance_name;
    if (!IsLegalIdentifier(inst.instance_name))
      DeclError(where, "instance name is not a legal identifier", report);
    if (!instance_names.insert(inst.instance_name).second)
      DeclError(where, "duplicate instance name", report);
    for (const VBinding& b : inst.params)
      CheckIds(b.actual, where + "#" + b.formal, report);
    std::set<std::string> bound;
    for (const VBinding& b : inst.ports) {
      CheckIds(b.actual, where + "." + b.formal, report);
      if (!bound.insert(b.formal).second)
        DeclError(where + "." + b.formal, "port is bound twice", report);
    }
  }
}

/// Declaration legality of every module in the design, reachable from
/// the top or not.
void CheckDecls(const VDesign& design, AnalysisReport& report) {
  std::set<std::string> module_names;
  for (const VModule& m : design.modules) {
    if (!module_names.insert(m.name).second)
      DeclError(m.name, "duplicate module definition", report);
    CheckModuleDecls(m, report);
  }
}

}  // namespace

AnalysisReport VerifyRtl(const VDesign& design) {
  AnalysisReport report;
  const Netlist netlist = Elaborate(design);
  CheckDrive(netlist, report);
  CheckWidths(design, report);
  CheckCombLoops(netlist, report);
  CheckClocks(design, report);
  CheckDead(netlist, report);
  CheckDecls(design, report);
  return report;
}

void VerifyRtlOrThrow(const VDesign& design,
                      obs::MetricsRegistry* metrics) {
  const AnalysisReport report = VerifyRtl(design);
  if (metrics != nullptr) {
    metrics->AddCounter("analysis.rtl.designs_verified");
    if (report.WarningCount() > 0)
      metrics->AddCounter("analysis.rtl.warnings", report.WarningCount());
  }
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::kWarning) continue;
    if (metrics != nullptr) metrics->AddCounter("analysis.rtl.rule." + d.rule);
    DB_LOG(kWarn) << "rtl-verify[" << d.rule << "] " << d.location << ": "
                  << d.message;
  }
  if (!report.ok())
    DB_THROW("RTL verification failed for '" << design.top << "':\n"
             << report.ToText());
}

}  // namespace db::analysis
