// Tests for the elaborated-netlist RTL analysis suite: the elaborator
// (rtl/netlist.h), the rtl.* rule passes (analysis/rtl_verifier.h)
// and the seeded mutation library (analysis/rtl_mutations.h) proving
// each rule trips on exactly its own breakage class.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "analysis/rtl_mutations.h"
#include "analysis/rtl_verifier.h"
#include "common/error.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "rtl/netlist.h"
#include "rtl/verilog.h"

namespace db {
namespace {

using analysis::AnalysisReport;
using analysis::BreakableRtlMutations;
using analysis::BreakRtlRule;
using analysis::Diagnostic;
using analysis::Severity;
using analysis::VerifyRtl;
using analysis::VerifyRtlOrThrow;

const AcceleratorDesign& MnistDesign() {
  static const AcceleratorDesign* design = [] {
    const Network net = BuildZooModel(ZooModel::kMnist);
    return new AcceleratorDesign(
        GenerateAccelerator(net, DbConstraint()));
  }();
  return *design;
}

// ---------------------------------------------------------------------
// Elaborator
// ---------------------------------------------------------------------

VDesign TwoLevelDesign() {
  VDesign design;
  VModule leaf;
  leaf.name = "leaf";
  leaf.ports.push_back({"in", PortDir::kInput, 4, false});
  leaf.ports.push_back({"out", PortDir::kOutput, 4, false});
  leaf.assigns.push_back({VId("out"), VId("in")});
  design.modules.push_back(leaf);

  VModule top;
  top.name = "top";
  top.ports.push_back({"a", PortDir::kInput, 4, false});
  top.ports.push_back({"y", PortDir::kOutput, 4, false});
  VInstance inst;
  inst.module_name = "leaf";
  inst.instance_name = "u0";
  inst.ports.push_back({"in", VId("a")});
  inst.ports.push_back({"out", VId("y")});
  top.instances.push_back(inst);
  design.modules.push_back(top);
  design.top = "top";
  return design;
}

TEST(Elaborate, FlattensChildPortsThroughBindings) {
  const Netlist netlist = Elaborate(TwoLevelDesign());
  EXPECT_TRUE(netlist.issues.empty());

  const int a = netlist.Find("a");
  const int y = netlist.Find("y");
  const int child_in = netlist.Find("u0/in");
  const int child_out = netlist.Find("u0/out");
  ASSERT_GE(a, 0);
  ASSERT_GE(y, 0);
  ASSERT_GE(child_in, 0);
  ASSERT_GE(child_out, 0);

  // The child input is driven by the parent binding; the parent net is
  // driven by the child's output port.
  ASSERT_EQ(netlist.nets[child_in].drivers.size(), 1u);
  EXPECT_EQ(netlist.nets[child_in].drivers[0].kind,
            NetDriver::Kind::kBinding);
  ASSERT_EQ(netlist.nets[y].drivers.size(), 1u);
  EXPECT_EQ(netlist.nets[y].drivers[0].kind,
            NetDriver::Kind::kInstanceOutput);
  EXPECT_TRUE(netlist.nets[a].is_primary_input);
  EXPECT_TRUE(netlist.nets[y].is_primary_output);

  // The combinational path a -> u0/in -> u0/out -> y is present.
  auto has_edge = [&](int src, int dst) {
    for (const auto& [s, d] : netlist.comb_edges)
      if (s == src && d == dst) return true;
    return false;
  };
  EXPECT_TRUE(has_edge(a, child_in));
  EXPECT_TRUE(has_edge(child_in, child_out));
  EXPECT_TRUE(has_edge(child_out, y));

  EXPECT_TRUE(VerifyRtl(TwoLevelDesign()).diagnostics().empty());
}

TEST(Elaborate, ReportsUndeclaredReferences) {
  VDesign design = TwoLevelDesign();
  design.modules[1].assigns.push_back({VId("y"), VId("ghost")});
  const Netlist netlist = Elaborate(design);
  ASSERT_FALSE(netlist.issues.empty());
  EXPECT_NE(netlist.issues[0].message.find("ghost"), std::string::npos);
  // Elaboration issues surface as rtl.drive errors.
  const AnalysisReport report = VerifyRtl(design);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule(analysis::kRuleRtlDrive));
}

TEST(InferWidth, FollowsVerilogSelfDeterminedRules) {
  VModule m;
  m.name = "w";
  m.nets.push_back({"a", 8, false, 0});
  m.nets.push_back({"b", 16, false, 0});
  m.nets.push_back({"mem", 16, true, 64});
  EXPECT_EQ(InferWidth(m, VBin(VId("a"), "+", VId("b"))), 16);  // max
  EXPECT_EQ(InferWidth(m, VBin(VId("a"), "+", VLit(3))), 8);  // 0 bubbles
  EXPECT_EQ(InferWidth(m, VBin(VId("b"), "<<", VId("a"))), 16);  // left
  EXPECT_EQ(InferWidth(m, VBin(VId("a"), "==", VId("b"))), 1);
  EXPECT_EQ(InferWidth(m, VConcat({VId("a"), VId("b")})), 24);  // sum
  EXPECT_EQ(InferWidth(m, VRepeat(3, VLit(1, 0, 'b'))), 3);
  EXPECT_EQ(InferWidth(m, VSlice(VId("b"), 11, 4)), 8);
  EXPECT_EQ(InferWidth(m, VIndex(VId("a"), VLit(2))), 1);  // bit-select
  EXPECT_EQ(InferWidth(m, VIndex(VId("mem"), VId("a"))), 16);  // element
  EXPECT_EQ(InferWidth(m, VSigned(VParen(VId("a")))), 8);
  EXPECT_EQ(InferWidth(m, VUnary("!", VId("b"))), 1);
  EXPECT_EQ(InferWidth(m, VUnary("~", VId("b"))), 16);
  EXPECT_EQ(InferWidth(m, VLit(0)), 0);  // unsized: flexible
}

// ---------------------------------------------------------------------
// Rule passes on hand-built designs
// ---------------------------------------------------------------------

TEST(RtlVerify, ClockDisciplineErrors) {
  VDesign design;
  VModule m;
  m.name = "clocks";
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.ports.push_back({"clk2", PortDir::kInput, 1, false});
  m.nets.push_back({"q", 1, true, 0});
  m.nets.push_back({"r", 1, true, 0});
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VNonBlocking(VId("q"), VLit(1, 1, 'b'))};
  m.always_blocks.push_back(a);
  VAlways b;
  b.sensitivity = "posedge clk2";  // second clock domain
  b.body = {VNonBlocking(VId("r"), VLit(1, 1, 'b'))};
  m.always_blocks.push_back(b);
  VAlways c;
  c.sensitivity = "negedge clk";  // unsupported sensitivity form
  m.always_blocks.push_back(c);
  design.modules.push_back(m);
  design.top = "clocks";

  const AnalysisReport report = VerifyRtl(design);
  int clock_errors = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.severity == Severity::kError &&
        d.rule == analysis::kRuleRtlClock)
      ++clock_errors;
  EXPECT_EQ(clock_errors, 2);
}

TEST(RtlVerify, NonBlockingInCombBlockIsAnError) {
  VDesign design;
  VModule m;
  m.name = "comb";
  m.ports.push_back({"a", PortDir::kInput, 1, false});
  m.ports.push_back({"y", PortDir::kOutput, 1, true});
  VAlways blk;
  blk.sensitivity = "*";
  blk.body = {VNonBlocking(VId("y"), VId("a"))};
  m.always_blocks.push_back(blk);
  design.modules.push_back(m);
  design.top = "comb";
  const AnalysisReport report = VerifyRtl(design);
  EXPECT_TRUE(report.HasRule(analysis::kRuleRtlClock));
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------
// rtl.decl
// ---------------------------------------------------------------------

VModule& ModuleNamed(VDesign& design, const std::string& name) {
  for (VModule& m : design.modules)
    if (m.name == name) return m;
  throw Error("no module '" + name + "'");
}

/// Error diagnostics under rtl.decl at `location`.
int DeclErrorsAt(const AnalysisReport& report, const std::string& location) {
  int n = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.severity == Severity::kError &&
        d.rule == analysis::kRuleRtlDecl && d.location == location)
      ++n;
  return n;
}

// Regression: VerifyRtl accepted a zero or negative port or net width,
// so a design-cache entry carrying one was served.
TEST(RtlDecl, NonPositiveWidthsAreErrors) {
  for (int width : {0, -5}) {
    VDesign rtl = MnistDesign().rtl;
    VModule& top = ModuleNamed(rtl, rtl.top);
    bool found = false;
    for (VPort& p : top.ports)
      if (p.name == "axi_araddr") {
        p.width = width;
        found = true;
      }
    ASSERT_TRUE(found);
    ASSERT_FALSE(top.nets.empty());
    top.nets.front().width = width;

    const AnalysisReport report = VerifyRtl(rtl);
    EXPECT_EQ(DeclErrorsAt(report, top.name + "/axi_araddr"), 1)
        << "width " << width;
    EXPECT_EQ(DeclErrorsAt(report, top.name + "/" + top.nets.front().name),
              1)
        << "width " << width;
    EXPECT_THROW(VerifyRtlOrThrow(rtl), Error) << "width " << width;
  }
}

TEST(RtlDecl, EachDeclarationErrorIsCaught) {
  const struct {
    const char* what;
    std::function<void(VDesign&)> breakage;
    std::string location;
  } cases[] = {
      {"undefined width parameter",
       [](VDesign& d) { ModuleNamed(d, "leaf").ports[0].width_param = "W"; },
       "leaf/in"},
      {"memory declared as a wire",
       [](VDesign& d) {
         ModuleNamed(d, "leaf").nets.push_back({"rom", 4, false, 16});
       },
       "leaf/rom"},
      {"assign driving an input port",
       [](VDesign& d) {
         ModuleNamed(d, "top").assigns.push_back({VId("a"), VLit(4, 0)});
       },
       "top/assign[0]"},
      {"port bound twice",
       [](VDesign& d) {
         VInstance& inst = ModuleNamed(d, "top").instances[0];
         inst.ports.push_back(inst.ports[0]);
       },
       "top/u0.in"},
      {"duplicate instance name",
       [](VDesign& d) {
         VModule& top = ModuleNamed(d, "top");
         top.instances.push_back(top.instances[0]);
       },
       "top/u0"},
      {"duplicate module definition",
       [](VDesign& d) { d.modules.push_back(ModuleNamed(d, "leaf")); },
       "leaf"},
      {"illegal name in a module unreachable from the top",
       [](VDesign& d) {
         VModule orphan;
         orphan.name = "orphan";
         orphan.nets.push_back({"bad-name", 1, false, 0});
         d.modules.push_back(orphan);
       },
       "orphan/bad-name"},
  };
  for (const auto& c : cases) {
    VDesign design = TwoLevelDesign();
    c.breakage(design);
    EXPECT_GE(DeclErrorsAt(VerifyRtl(design), c.location), 1) << c.what;
  }
}

// ---------------------------------------------------------------------
// Zoo-wide cleanliness
// ---------------------------------------------------------------------

TEST(RtlVerify, EveryZooModelAnalyzesClean) {
  for (ZooModel model : AllZooModels()) {
    const Network net = BuildZooModel(model);
    const AcceleratorDesign design =
        GenerateAccelerator(net, DbConstraint());
    const AnalysisReport report = VerifyRtl(design.rtl);
    EXPECT_TRUE(report.diagnostics().empty())
        << net.name() << ":\n" << report.ToText();
    EXPECT_NO_THROW(VerifyRtlOrThrow(design.rtl));
  }
}

// ---------------------------------------------------------------------
// Mutation sweep: each class trips exactly its own rule
// ---------------------------------------------------------------------

TEST(RtlMutations, EachErrorClassTripsExactlyItsOwnRule) {
  const std::map<std::string, std::string> expected_rule = {
      {"drive.unbound", analysis::kRuleRtlDrive},
      {"drive.double", analysis::kRuleRtlDrive},
      {"width.slice", analysis::kRuleRtlWidth},
      {"clock.blocking", analysis::kRuleRtlClock},
      {"comb.cycle", analysis::kRuleRtlCombLoop},
  };
  for (const auto& [mutation, rule] : expected_rule) {
    VDesign broken = MnistDesign().rtl;
    BreakRtlRule(broken, mutation);
    const AnalysisReport report = VerifyRtl(broken);
    EXPECT_GT(report.ErrorCount(), 0) << mutation;
    for (const Diagnostic& d : report.diagnostics()) {
      if (d.severity == Severity::kError) {
        EXPECT_EQ(d.rule, rule)
            << mutation << " aliased into " << d.rule << " at "
            << d.location << ": " << d.message;
      }
    }
    EXPECT_THROW(VerifyRtlOrThrow(broken), Error) << mutation;
  }
}

TEST(RtlMutations, DeadRegisterWarnsWithoutError) {
  VDesign broken = MnistDesign().rtl;
  BreakRtlRule(broken, "dead.reg");
  const AnalysisReport report = VerifyRtl(broken);
  EXPECT_EQ(report.ErrorCount(), 0);
  EXPECT_GT(report.WarningCount(), 0);
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity == Severity::kWarning) {
      EXPECT_EQ(d.rule, analysis::kRuleRtlDead) << d.message;
    }
  }
  EXPECT_NO_THROW(VerifyRtlOrThrow(broken));  // warnings pass the gate
}

TEST(RtlMutations, CatalogueIsStableAndUnknownClassThrows) {
  const std::vector<std::string> classes = BreakableRtlMutations();
  EXPECT_EQ(classes.size(), 6u);
  VDesign rtl = MnistDesign().rtl;
  EXPECT_THROW(BreakRtlRule(rtl, "no.such.class"), Error);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(RtlVerify, ReportsAreByteStableAcrossRuns) {
  VDesign broken = MnistDesign().rtl;
  BreakRtlRule(broken, "drive.unbound");
  const AnalysisReport first = VerifyRtl(broken);
  const AnalysisReport second = VerifyRtl(broken);
  EXPECT_EQ(first.ToText(), second.ToText());
  EXPECT_EQ(first.ToJson(), second.ToJson());
}

}  // namespace
}  // namespace db
