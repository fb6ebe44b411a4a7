// Tests for the Verilog AST, the per-block emitters, and the
// declaration- and binding-level checks of the RTL verifier (the Lint
// suite: each case asserts the rtl.* rule that catches it).
#include <gtest/gtest.h>

#include "analysis/rtl_verifier.h"
#include "common/error.h"
#include "common/hash.h"
#include "core/generator.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "rtl/block_emitters.h"
#include "rtl/verilog.h"

namespace db {
namespace {

using analysis::AnalysisReport;
using analysis::Diagnostic;
using analysis::Severity;
using analysis::VerifyRtl;

/// A design whose top is the single module `m`.
VDesign SingleModule(const VModule& m) {
  VDesign design;
  design.modules.push_back(m);
  design.top = m.name;
  return design;
}

/// Number of error diagnostics under `rule` whose message contains
/// `text`.
int Errors(const AnalysisReport& report, const std::string& rule,
           const std::string& text = "") {
  int n = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.severity == Severity::kError && d.rule == rule &&
        d.message.find(text) != std::string::npos)
      ++n;
  return n;
}

std::vector<BlockConfig> AllBlockConfigs() {
  std::vector<BlockConfig> configs;
  auto add = [&](BlockType type, auto mutate) {
    BlockConfig c;
    c.type = type;
    c.bit_width = 16;
    c.lanes = 4;
    c.depth = 256;
    c.ports = 4;
    c.patterns = 3;
    c.fold_events = 5;
    mutate(c);
    configs.push_back(c);
  };
  add(BlockType::kSynergyNeuron, [](BlockConfig& c) { c.use_dsp = true; });
  add(BlockType::kSynergyNeuron, [](BlockConfig& c) { c.use_dsp = false; });
  add(BlockType::kAccumulator, [](BlockConfig&) {});
  add(BlockType::kPoolingUnit, [](BlockConfig&) {});
  add(BlockType::kLrnUnit, [](BlockConfig& c) { c.lanes = 1; });
  add(BlockType::kDropoutUnit, [](BlockConfig&) {});
  add(BlockType::kClassifier, [](BlockConfig& c) { c.lanes = 5; });
  add(BlockType::kActivationUnit, [](BlockConfig&) {});
  add(BlockType::kApproxLut, [](BlockConfig& c) { c.interpolate = true; });
  add(BlockType::kApproxLut,
      [](BlockConfig& c) { c.interpolate = false; });
  add(BlockType::kConnectionBox, [](BlockConfig&) {});
  add(BlockType::kAgu, [](BlockConfig& c) { c.agu_role = AguRole::kMain; });
  add(BlockType::kAgu, [](BlockConfig& c) { c.agu_role = AguRole::kData; });
  add(BlockType::kCoordinator, [](BlockConfig&) {});
  add(BlockType::kBufferBank, [](BlockConfig& c) { c.depth = 4096; });
  return configs;
}

class BlockEmitterSweep
    : public ::testing::TestWithParam<BlockConfig> {};

TEST_P(BlockEmitterSweep, EmitsLintCleanModule) {
  const VModule module = EmitBlockModule(GetParam());
  const AnalysisReport report = VerifyRtl(SingleModule(module));
  EXPECT_EQ(report.ErrorCount(), 0) << module.name << ":\n"
                                    << report.ToText();
  EXPECT_EQ(report.WarningCount(), 0) << module.name << ":\n"
                                      << report.ToText();
}

TEST_P(BlockEmitterSweep, ModuleNameDeterministicAndLegal) {
  const std::string name = BlockModuleName(GetParam());
  EXPECT_EQ(name, BlockModuleName(GetParam()));
  EXPECT_EQ(name.find(' '), std::string::npos);
  EXPECT_TRUE(name.starts_with("db_"));
}

TEST_P(BlockEmitterSweep, EmittedTextIsModule) {
  const VModule module = EmitBlockModule(GetParam());
  const std::string text = EmitVerilog(module);
  EXPECT_NE(text.find("module " + module.name), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  // Every block is clocked.
  EXPECT_NE(text.find("input  wire clk"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllBlocks, BlockEmitterSweep,
                         ::testing::ValuesIn(AllBlockConfigs()),
                         [](const auto& info) {
                           std::string name =
                               BlockModuleName(info.param);
                           return name.substr(3) + "_" +
                                  std::to_string(info.index);
                         });

TEST(Verilog, EmitPortsAndParams) {
  VModule m;
  m.name = "widget";
  m.params.push_back({"WIDTH", 16});
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.ports.push_back({"out", PortDir::kOutput, 8, true});
  m.assigns.push_back({});  // exercise empty assign rendering guard
  m.assigns.clear();
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VNonBlocking(VId("out"), VBin(VId("out"), "+", VLit(1)))};
  m.always_blocks.push_back(a);
  const std::string text = EmitVerilog(m);
  EXPECT_NE(text.find("parameter WIDTH = 16"), std::string::npos);
  EXPECT_NE(text.find("output reg [7:0] out"), std::string::npos);
  EXPECT_NE(text.find("always @(posedge clk)"), std::string::npos);
}

TEST(Verilog, MemoryDeclaration) {
  VModule m;
  m.name = "mem";
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.nets.push_back({"ram", 16, true, 64});
  const std::string text = EmitVerilog(m);
  EXPECT_NE(text.find("reg [15:0] ram [0:63];"), std::string::npos);
}

TEST(Lint, CatchesDuplicateNames) {
  VModule m;
  m.name = "dup";
  m.ports.push_back({"x", PortDir::kInput, 1, false});
  m.nets.push_back({"x", 1, false, 0});
  EXPECT_EQ(Errors(VerifyRtl(SingleModule(m)), analysis::kRuleRtlDecl,
                   "duplicate name"),
            1);
}

TEST(Lint, CatchesUndrivenOutput) {
  VModule m;
  m.name = "undriven";
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.ports.push_back({"y", PortDir::kOutput, 4, false});
  EXPECT_EQ(Errors(VerifyRtl(SingleModule(m)), analysis::kRuleRtlDrive,
                   "never driven"),
            1);
}

TEST(Lint, CatchesAssignToUndeclared) {
  VModule m;
  m.name = "bad";
  m.assigns.push_back({VId("ghost"), VLit(1, 1, 'b')});
  EXPECT_EQ(Errors(VerifyRtl(SingleModule(m)), analysis::kRuleRtlDrive,
                   "undeclared net 'ghost'"),
            1);
}

TEST(Lint, CatchesAssignToReg) {
  VModule m;
  m.name = "bad2";
  m.nets.push_back({"r", 4, true, 0});
  m.assigns.push_back({VId("r"), VLit(4, 1)});
  EXPECT_EQ(Errors(VerifyRtl(SingleModule(m)), analysis::kRuleRtlDecl,
                   "assign drives reg 'r'"),
            1);
}

TEST(Lint, CatchesDoubleDriver) {
  VModule m;
  m.name = "dd";
  m.nets.push_back({"w", 1, false, 0});
  m.assigns.push_back({VId("w"), VLit(1, 0, 'b')});
  m.assigns.push_back({VId("w"), VLit(1, 1, 'b')});
  EXPECT_EQ(Errors(VerifyRtl(SingleModule(m)), analysis::kRuleRtlDrive,
                   "multiple drivers"),
            1);
}

TEST(Lint, CatchesIllegalIdentifier) {
  VModule m;
  m.name = "9bad";
  m.nets.push_back({"w", 1, false, 0});
  m.assigns.push_back({VId("w"), VId("")});  // a missing operand
  const AnalysisReport report = VerifyRtl(SingleModule(m));
  EXPECT_EQ(Errors(report, analysis::kRuleRtlDecl,
                   "module name is not a legal identifier"),
            1);
  EXPECT_EQ(Errors(report, analysis::kRuleRtlDecl,
                   "reference '' is not a legal identifier"),
            1);
}

TEST(LintDesign, CatchesUndefinedInstanceModule) {
  VDesign design;
  VModule top;
  top.name = "top";
  VInstance inst;
  inst.module_name = "missing_module";
  inst.instance_name = "u0";
  top.instances.push_back(inst);
  design.modules.push_back(top);
  design.top = "top";
  EXPECT_EQ(Errors(VerifyRtl(design), analysis::kRuleRtlDrive,
                   "undefined module"),
            1);
}

TEST(LintDesign, CatchesUnboundAndUnknownPorts) {
  VDesign design;
  VModule child;
  child.name = "child";
  child.ports.push_back({"a", PortDir::kInput, 1, false});
  child.ports.push_back({"y", PortDir::kOutput, 1, false});
  child.assigns.push_back({VId("y"), VId("a")});  // the child reads 'a'
  design.modules.push_back(child);

  VModule top;
  top.name = "top";
  VInstance inst;
  inst.module_name = "child";
  inst.instance_name = "u0";
  inst.ports.push_back({"bogus", VLit(1, 0, 'b')});  // unknown, 'a' unbound
  top.instances.push_back(inst);
  design.modules.push_back(top);
  design.top = "top";

  const AnalysisReport report = VerifyRtl(design);
  EXPECT_EQ(Errors(report, analysis::kRuleRtlDrive, "unknown port"), 1);
  int unbound = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == analysis::kRuleRtlDrive && d.location == "u0/a" &&
        d.message.find("never driven") != std::string::npos)
      ++unbound;
  EXPECT_EQ(unbound, 1);
}

TEST(LintDesign, CatchesPortWidthMismatch) {
  VDesign design;
  VModule child;
  child.name = "child";
  child.ports.push_back({"data_in", PortDir::kInput, 8, false});
  child.ports.push_back({"sel", PortDir::kInput, 2, false});
  child.ports.push_back({"bit_in", PortDir::kInput, 1, false});
  design.modules.push_back(child);

  VModule top;
  top.name = "top";
  top.nets.push_back({"narrow", 4, false, 0});   // 4-bit wire on 8-bit port
  top.nets.push_back({"wide", 16, false, 0});
  VInstance inst;
  inst.module_name = "child";
  inst.instance_name = "u0";
  inst.ports.push_back({"data_in", VId("narrow")});  // width 4 != 8
  inst.ports.push_back({"sel", VLit(8, 1)});         // sized literal 8 != 2
  inst.ports.push_back(
      {"bit_in", VIndex(VId("wide"), VLit(3))});     // bit-select: 1 == 1
  top.instances.push_back(inst);
  design.modules.push_back(top);
  design.top = "top";

  EXPECT_EQ(Errors(VerifyRtl(design), analysis::kRuleRtlWidth), 2);
}

TEST(LintDesign, AcceptsMatchingPortWidths) {
  VDesign design;
  VModule child;
  child.name = "child";
  child.ports.push_back({"data_in", PortDir::kInput, 8, false});
  design.modules.push_back(child);

  VModule top;
  top.name = "top";
  top.nets.push_back({"bus", 8, false, 0});
  VInstance inst;
  inst.module_name = "child";
  inst.instance_name = "u0";
  inst.ports.push_back({"data_in", VId("bus")});
  top.instances.push_back(inst);
  design.modules.push_back(top);
  design.top = "top";

  EXPECT_FALSE(VerifyRtl(design).HasRule(analysis::kRuleRtlWidth));
}

TEST(LintDesign, CatchesMissingTop) {
  VDesign design;
  VModule m;
  m.name = "only";
  design.modules.push_back(m);
  design.top = "nonexistent";
  EXPECT_EQ(Errors(VerifyRtl(design), analysis::kRuleRtlDrive,
                   "top module 'nonexistent' is not defined"),
            1);
}

TEST(LintDesign, CheckOrThrowAggregates) {
  VModule m;
  m.name = "1bad";
  obs::MetricsRegistry metrics;
  EXPECT_THROW(analysis::VerifyRtlOrThrow(SingleModule(m), &metrics),
               Error);
  EXPECT_EQ(metrics.CounterValue("analysis.rtl.designs_verified"), 1);
}

TEST(Emitters, InvalidConfigRejected) {
  BlockConfig c;
  c.type = BlockType::kApproxLut;
  c.depth = 3;  // not a power of two
  EXPECT_THROW(EmitBlockModule(c), Error);
}

TEST(Verilog, RenderExprForms) {
  EXPECT_EQ(RenderExpr(VBin(VId("a"), "+", VLit(1))), "a + 1");
  EXPECT_EQ(RenderExpr(VLit(16, 0xACE1, 'h')), "16'hACE1");
  EXPECT_EQ(RenderExpr(VLit(4, 5, 'b')), "4'b101");
  EXPECT_EQ(RenderExpr(VSlice(VId("bus"), 7, 4)), "bus[7:4]");
  EXPECT_EQ(RenderExpr(VIndex(VId("mem"), VId("addr"))), "mem[addr]");
  EXPECT_EQ(RenderExpr(VConcat({VLit(1, 1, 'b'), VRepeat(3, VLit(1, 0, 'b'))})),
            "{1'b1, {3{1'b0}}}");
  EXPECT_EQ(RenderExpr(VTernary(VId("c"), VId("t"), VId("f"))),
            "c ? t : f");
  EXPECT_EQ(
      RenderExpr(VPart(VId("sel"), VBinCompact(VId("i"), "*", VLit(16)), 16)),
      "sel[i*16 +: 16]");
  EXPECT_EQ(RenderExpr(VSigned(VParen(VBin(VId("x"), "-", VId("y"))))),
            "$signed((x - y))");
  EXPECT_EQ(RenderExpr(VUnary("!", VId("rst_n"))), "!rst_n");
}

TEST(Verilog, RenderStmtIfChain) {
  // One chained if / else-if / else, block-style branches.
  const std::vector<VStmt> stmts = {
      VIf(VUnary("!", VId("rst_n")),
          {VNonBlocking(VId("q"), VLit(1, 0, 'b'))},
          {VIf(VId("en"), {VNonBlocking(VId("q"), VId("d"))},
               {VNonBlocking(VId("q"), VId("q"))})})};
  const std::vector<std::string> lines = RenderStmts(stmts);
  const std::vector<std::string> expect = {
      "if (!rst_n) begin",      "  q <= 1'b0;",
      "end else if (en) begin", "  q <= d;",
      "end else begin",         "  q <= q;",
      "end"};
  EXPECT_EQ(lines, expect);
}

// Regression (typed-AST drive analysis): an output named with a prefix
// of another written name must still be reported undriven.  A
// string-based check that searched the always text for the substring
// "out" was fooled by "out_valid <= ...".
TEST(Lint, OutputNamePrefixDoesNotMaskUndriven) {
  VModule m;
  m.name = "sub";
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.ports.push_back({"out", PortDir::kOutput, 4, true});
  m.ports.push_back({"out_valid", PortDir::kOutput, 1, true});
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VNonBlocking(VId("out_valid"), VLit(1, 1, 'b'))};
  m.always_blocks.push_back(a);
  const AnalysisReport report = VerifyRtl(SingleModule(m));
  int undriven_out = 0;
  for (const Diagnostic& d : report.diagnostics())
    if (d.rule == analysis::kRuleRtlDrive && d.location == "out" &&
        d.message.find("never driven") != std::string::npos)
      ++undriven_out;
  EXPECT_EQ(undriven_out, 1);
}

// Regression (parameter-width bindings): a port whose range comes from a
// parameter checks against the *instance's* override, not the default.
TEST(LintDesign, ParamWidthPortResolvesThroughOverride) {
  VDesign design;
  VModule child;
  child.name = "child";
  child.params.push_back({"W", 8});
  child.ports.push_back({"clk", PortDir::kInput, 1, false});
  child.ports.push_back({"data", PortDir::kInput, 8, false, "W"});
  design.modules.push_back(child);

  VModule top;
  top.name = "top";
  top.ports.push_back({"clk", PortDir::kInput, 1, false});
  VInstance wide;
  wide.module_name = "child";
  wide.instance_name = "u_wide";
  wide.params.push_back({"W", VLit(16)});
  wide.ports.push_back({"clk", VId("clk")});
  wide.ports.push_back({"data", VLit(16, 5)});  // matches the override
  top.instances.push_back(wide);
  VInstance bad;
  bad.module_name = "child";
  bad.instance_name = "u_bad";
  bad.params.push_back({"W", VLit(16)});
  bad.ports.push_back({"clk", VId("clk")});
  bad.ports.push_back({"data", VLit(8, 5)});  // default width, not override
  top.instances.push_back(bad);
  design.modules.push_back(top);
  design.top = "top";

  const AnalysisReport report = VerifyRtl(design);
  EXPECT_EQ(Errors(report, analysis::kRuleRtlWidth), 1);
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule == analysis::kRuleRtlWidth) {
      EXPECT_EQ(d.location, "top/u_bad.data") << d.message;
    }
  }
}

// Golden RTL digests: the emitted Verilog for every zoo model is pinned
// byte-for-byte.  A digest change means the printer or an emitter
// changed the hardware text — review the diff, then update the value.
TEST(GoldenRtl, ZooDigestsArePinned) {
  const struct {
    ZooModel model;
    std::uint64_t digest;
  } goldens[] = {
      {ZooModel::kAnn0Fft, 0x4b21a993ae7bb3b7ull},
      {ZooModel::kAnn1Jpeg, 0x8e4867a29cc38dbdull},
      {ZooModel::kAnn2Kmeans, 0xde24a06414a39498ull},
      {ZooModel::kHopfield, 0x7f12005c087d3109ull},
      {ZooModel::kCmac, 0x9caae9aef5bff1d7ull},
      {ZooModel::kMnist, 0x0f721ba57b465f1eull},
      {ZooModel::kAlexnet, 0x49715d47542171cdull},
      {ZooModel::kNin, 0x9679931afbcc4966ull},
      {ZooModel::kCifar, 0x7f13a482d90aa815ull},
  };
  for (const auto& g : goldens) {
    const Network net = BuildZooModel(g.model);
    const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
    EXPECT_EQ(Fnv1a64(EmitVerilog(design.rtl)), g.digest) << net.name();
  }
}

}  // namespace
}  // namespace db
