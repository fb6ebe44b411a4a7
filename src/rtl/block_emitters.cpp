#include "rtl/block_emitters.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace db {
namespace {

void AddClkRst(VModule& m) {
  m.ports.push_back({"clk", PortDir::kInput, 1, false});
  m.ports.push_back({"rst_n", PortDir::kInput, 1, false});
}

/// Lane slice helper: name[w*(lane+1)-1 : w*lane].
VExpr Lane(const std::string& name, int w, int lane) {
  return VSlice(VId(name), w * (lane + 1) - 1, w * lane);
}

/// Single-bit binary literal: 1'b0 / 1'b1.
VExpr Bit1(int v) { return VLit(1, v, 'b'); }

VExpr NotRstN() { return VUnary("!", VId("rst_n")); }

VModule EmitSynergyNeuron(const BlockConfig& c) {
  // A lane array of multiply-accumulate neurons: each lane multiplies a
  // feature element by a weight element and accumulates; `clear` starts a
  // new dot product, `valid_in` gates accumulation.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Synergy neuron: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  m.ports.push_back({"valid_in", PortDir::kInput, 1, false});
  m.ports.push_back({"clear", PortDir::kInput, 1, false});
  m.ports.push_back({"feature", PortDir::kInput, w * c.lanes, false});
  m.ports.push_back({"weight", PortDir::kInput, w * c.lanes, false});
  m.ports.push_back({"acc_out", PortDir::kOutput, 2 * w * c.lanes, true});
  m.ports.push_back({"valid_out", PortDir::kOutput, 1, true});

  m.nets.push_back({"product", 2 * w * c.lanes, false, 0});
  for (int lane = 0; lane < c.lanes; ++lane)
    m.assigns.push_back(
        {Lane("product", 2 * w, lane),
         VBin(VSigned(Lane("feature", w, lane)), "*",
              VSigned(Lane("weight", w, lane)))});

  const auto clear_state = [] {
    return std::vector<VStmt>{VNonBlocking(VId("acc_out"), VLit(0)),
                              VNonBlocking(VId("valid_out"), Bit1(0))};
  };
  std::vector<VStmt> accumulate;
  for (int lane = 0; lane < c.lanes; ++lane)
    accumulate.push_back(
        VNonBlocking(Lane("acc_out", 2 * w, lane),
                     VBin(Lane("acc_out", 2 * w, lane), "+",
                          Lane("product", 2 * w, lane))));
  accumulate.push_back(VNonBlocking(VId("valid_out"), Bit1(1)));

  VAlways acc;
  acc.sensitivity = "posedge clk";
  acc.body = {VIf(
      NotRstN(), clear_state(),
      {VIf(VId("clear"), clear_state(),
           {VIf(VId("valid_in"), std::move(accumulate))})})};
  m.always_blocks.push_back(std::move(acc));
  return m;
}

VModule EmitAccumulator(const BlockConfig& c) {
  // Adder tree folding `lanes` partial sums into one; saturating output.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Partial-sum accumulator: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = 2 * c.bit_width;  // accepts full-precision partial sums
  m.ports.push_back({"valid_in", PortDir::kInput, 1, false});
  m.ports.push_back({"partials", PortDir::kInput, w * c.lanes, false});
  m.ports.push_back({"sum", PortDir::kOutput, w, true});
  m.ports.push_back({"valid_out", PortDir::kOutput, 1, true});

  VExpr tree = VSigned(Lane("partials", w, 0));
  for (int lane = 1; lane < c.lanes; ++lane)
    tree = VBin(std::move(tree), "+", VSigned(Lane("partials", w, lane)));
  m.nets.push_back({"tree_sum", w, false, 0});
  m.assigns.push_back({VId("tree_sum"), std::move(tree)});

  VAlways reg;
  reg.sensitivity = "posedge clk";
  reg.body = {VIf(NotRstN(),
                  {VNonBlocking(VId("sum"), VLit(0)),
                   VNonBlocking(VId("valid_out"), Bit1(0))},
                  {VNonBlocking(VId("sum"), VId("tree_sum")),
                   VNonBlocking(VId("valid_out"), VId("valid_in"))})};
  m.always_blocks.push_back(std::move(reg));
  return m;
}

VModule EmitPoolingUnit(const BlockConfig& c) {
  // Streaming window reduction: running max or running sum with a final
  // shift (average pooling divides by a power-of-two window via shift —
  // the connection box's shifting latch, folded in here).
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Pooling unit: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  m.ports.push_back({"valid_in", PortDir::kInput, 1, false});
  m.ports.push_back({"window_start", PortDir::kInput, 1, false});
  m.ports.push_back({"mode_max", PortDir::kInput, 1, false});
  m.ports.push_back({"shift", PortDir::kInput, 4, false});
  m.ports.push_back({"din", PortDir::kInput, w * c.lanes, false});
  m.ports.push_back({"dout", PortDir::kOutput, w * c.lanes, true});

  for (int lane = 0; lane < c.lanes; ++lane) {
    const VExpr din_s = Lane("din", w, lane);
    const VExpr dout_s = Lane("dout", w, lane);
    VStmt reduce = VIf(
        VId("mode_max"),
        {VIf(VBin(VSigned(din_s), ">", VSigned(dout_s)),
             {VNonBlocking(dout_s, din_s)}, {}, VBranchStyle::kInline)},
        {VNonBlocking(dout_s,
                      VBin(VParen(VBin(VSigned(dout_s), "+",
                                       VSigned(din_s))),
                           ">>>", VId("shift")))});
    VAlways a;
    a.sensitivity = "posedge clk";
    a.body = {VIf(NotRstN(), {VNonBlocking(dout_s, VLit(0))},
                  {VIf(VId("window_start"), {VNonBlocking(dout_s, din_s)},
                       {VIf(VId("valid_in"), {std::move(reduce)})},
                       VBranchStyle::kInline)},
                  VBranchStyle::kInline)};
    m.always_blocks.push_back(std::move(a));
  }
  return m;
}

VModule EmitLrnUnit(const BlockConfig& c) {
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "LRN unit: squares a channel window, accumulates, and drives "
              "the scale through the approx LUT interface.\n" +
              DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  m.ports.push_back({"valid_in", PortDir::kInput, 1, false});
  m.ports.push_back({"window_start", PortDir::kInput, 1, false});
  m.ports.push_back({"din", PortDir::kInput, w, false});
  m.ports.push_back({"sum_sq", PortDir::kOutput, 2 * w, true});
  m.ports.push_back({"lut_key", PortDir::kOutput, w, false});

  m.nets.push_back({"sq", 2 * w, false, 0});
  m.assigns.push_back(
      {VId("sq"), VBin(VSigned(VId("din")), "*", VSigned(VId("din")))});
  m.assigns.push_back({VId("lut_key"), VSlice(VId("sum_sq"), 2 * w - 1, w)});

  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(NotRstN(), {VNonBlocking(VId("sum_sq"), VLit(0))},
                {VIf(VId("window_start"),
                     {VNonBlocking(VId("sum_sq"), VId("sq"))},
                     {VIf(VId("valid_in"),
                          {VNonBlocking(VId("sum_sq"),
                                        VBin(VId("sum_sq"), "+",
                                             VId("sq")))},
                          {}, VBranchStyle::kInline)},
                     VBranchStyle::kInline)},
                VBranchStyle::kInline)};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitDropoutUnit(const BlockConfig& c) {
  // LFSR-driven mask inserter used during accelerator-assisted training.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Drop-out inserter: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  m.ports.push_back({"enable", PortDir::kInput, 1, false});
  m.ports.push_back({"threshold", PortDir::kInput, 16, false});
  m.ports.push_back({"din", PortDir::kInput, w, false});
  m.ports.push_back({"dout", PortDir::kOutput, w, false});
  m.nets.push_back({"lfsr", 16, true, 0});
  m.assigns.push_back(
      {VId("dout"),
       VTernary(VParen(VBin(VId("enable"), "&&",
                            VParen(VBin(VId("lfsr"), "<",
                                        VId("threshold"))))),
                VRepeat(w, Bit1(0)), VId("din"))});
  const auto lfsr_bit = [](int i) {
    return VIndex(VId("lfsr"), VLit(i));
  };
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(
      NotRstN(), {VNonBlocking(VId("lfsr"), VLit(16, 0xACE1, 'h'))},
      {VNonBlocking(
          VId("lfsr"),
          VConcat({VSlice(VId("lfsr"), 14, 0),
                   VBin(VBin(VBin(lfsr_bit(15), "^", lfsr_bit(13)), "^",
                             lfsr_bit(12)),
                        "^", lfsr_bit(10))}))},
      VBranchStyle::kInline, VBranchStyle::kInline)};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitClassifier(const BlockConfig& c) {
  // k-sorter (Beigel & Gill [11]): one compare-exchange insertion stage
  // per cycle over a k-deep sorted register file of (value, index) pairs.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "K-sorter classifier: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  const int k = c.lanes;
  const int iw = 16;  // index width
  m.ports.push_back({"valid_in", PortDir::kInput, 1, false});
  m.ports.push_back({"flush", PortDir::kInput, 1, false});
  m.ports.push_back({"din", PortDir::kInput, w, false});
  m.ports.push_back({"din_index", PortDir::kInput, iw, false});
  m.ports.push_back({"top_values", PortDir::kOutput, w * k, true});
  m.ports.push_back({"top_indices", PortDir::kOutput, iw * k, true});

  std::vector<VStmt> reset;
  for (int i = 0; i < k; ++i) {
    reset.push_back(
        VNonBlocking(Lane("top_values", w, i),
                     VConcat({Bit1(1), VRepeat(w - 1, Bit1(0))})));
    reset.push_back(VNonBlocking(Lane("top_indices", iw, i), VLit(0)));
  }

  // Insertion network: shift-down from the position where din wins.
  std::vector<VStmt> insert;
  for (int i = k - 1; i >= 0; --i) {
    std::vector<VStmt> shift_down;
    for (int j = k - 1; j > i; --j) {
      shift_down.push_back(
          VNonBlocking(Lane("top_values", w, j),
                       VSlice(VId("top_values"), w * j - 1, w * (j - 1))));
      shift_down.push_back(
          VNonBlocking(Lane("top_indices", iw, j),
                       VSlice(VId("top_indices"), iw * j - 1,
                              iw * (j - 1))));
    }
    shift_down.push_back(VNonBlocking(Lane("top_values", w, i), VId("din")));
    shift_down.push_back(
        VNonBlocking(Lane("top_indices", iw, i), VId("din_index")));
    insert.push_back(VIf(VBin(VSigned(VId("din")), ">",
                              VSigned(Lane("top_values", w, i))),
                         std::move(shift_down), {},
                         VBranchStyle::kBlockOwnLine));
  }

  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(VBin(NotRstN(), "||", VId("flush")), std::move(reset),
                {VIf(VId("valid_in"), std::move(insert))})};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitApproxLut(const BlockConfig& c) {
  // Approx LUT (paper §3.3): sampled function store; keys that miss are
  // resolved by interpolating between the adjacent sampled entries.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Approx LUT: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  const int idx_bits =
      std::max(1, static_cast<int>(std::llround(
                      std::log2(static_cast<double>(c.depth)))));
  m.ports.push_back({"key", PortDir::kInput, w, false});
  m.ports.push_back({"value", PortDir::kOutput, w, true});
  m.nets.push_back({"table_mem", w, true, c.depth});
  m.nets.push_back({"index", idx_bits, false, 0});
  m.assigns.push_back(
      {VId("index"), VSlice(VId("key"), w - 1, w - idx_bits)});

  VAlways a;
  a.sensitivity = "posedge clk";
  // Interpolation needs fractional key bits below the index field; a
  // table indexed by the full key has nothing to interpolate on.
  const bool interpolate = c.interpolate && w - idx_bits >= 1;
  if (interpolate) {
    m.nets.push_back({"lo", w, false, 0});
    m.nets.push_back({"hi", w, false, 0});
    m.nets.push_back({"frac", w - idx_bits, false, 0});
    m.assigns.push_back({VId("lo"), VIndex(VId("table_mem"), VId("index"))});
    m.assigns.push_back(
        {VId("hi"),
         VIndex(VId("table_mem"),
                VTernary(VBin(VId("index"), "==", VLit(c.depth - 1)),
                         VId("index"), VBin(VId("index"), "+", VLit(1))))});
    m.assigns.push_back(
        {VId("frac"), VSlice(VId("key"), w - idx_bits - 1, 0)});
    a.body = {VNonBlocking(
        VId("value"),
        VBin(VId("lo"), "+",
             VParen(VBin(
                 VParen(VBin(VParen(VBin(VSigned(VId("hi")), "-",
                                         VSigned(VId("lo")))),
                             "*",
                             VSigned(VConcat({Bit1(0), VId("frac")})))),
                 ">>>", VLit(w - idx_bits)))))};
  } else {
    a.body = {VNonBlocking(VId("value"),
                           VIndex(VId("table_mem"), VId("index")))};
  }
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitActivationUnit(const BlockConfig& c) {
  // Thin pipeline stage wrapping the approx LUT; selects between the
  // hard-wired ReLU comparator and the LUT-backed smooth functions.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Activation unit: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  m.ports.push_back({"select_relu", PortDir::kInput, 1, false});
  m.ports.push_back({"din", PortDir::kInput, w, false});
  m.ports.push_back({"lut_value", PortDir::kInput, w, false});
  m.ports.push_back({"lut_key", PortDir::kOutput, w, false});
  m.ports.push_back({"dout", PortDir::kOutput, w, true});
  m.assigns.push_back({VId("lut_key"), VId("din")});
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(NotRstN(), {VNonBlocking(VId("dout"), VLit(0))},
                {VIf(VId("select_relu"),
                     {VNonBlocking(
                         VId("dout"),
                         VTernary(VBin(VSigned(VId("din")), ">", VLit(0)),
                                  VId("din"), VRepeat(w, Bit1(0))))},
                     {VNonBlocking(VId("dout"), VId("lut_value"))},
                     VBranchStyle::kInline, VBranchStyle::kInline)},
                VBranchStyle::kInline)};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitConnectionBox(const BlockConfig& c) {
  // Crossbar reconnecting producer blocks to consumer blocks, plus the
  // shifting latch for approximate division (paper §3.2).
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Connection box: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width;
  const int p = c.ports;
  const int sel_bits = std::max(
      1, static_cast<int>(std::ceil(std::log2(static_cast<double>(p)))));
  m.ports.push_back({"din", PortDir::kInput, w * p, false});
  m.ports.push_back({"select", PortDir::kInput, sel_bits * p, false});
  m.ports.push_back({"shift", PortDir::kInput, 4, false});
  m.ports.push_back({"dout", PortDir::kOutput, w * p, true});

  std::vector<VStmt> route;
  for (int out = 0; out < p; ++out)
    route.push_back(VNonBlocking(
        Lane("dout", w, out),
        VBin(VSigned(VPart(VId("din"),
                           VBinCompact(Lane("select", sel_bits, out), "*",
                                       VLit(w)),
                           w)),
             ">>>", VId("shift"))));

  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(NotRstN(), {VNonBlocking(VId("dout"), VLit(0))},
                std::move(route), VBranchStyle::kInline)};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitAgu(const BlockConfig& c) {
  // Template AGU of Fig. 6: pattern registers (start, footprint, x/y
  // length, stride, offset) stepped by a nested x/y counter pair; emits
  // an address stream and the data-driven trigger events.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "AGU (" + AguRoleName(c.agu_role) + "): " + DescribeBlock(c);
  AddClkRst(m);
  const int aw = c.agu_role == AguRole::kMain ? 32 : 18;
  const int pat_bits = std::max(
      1, static_cast<int>(
             std::ceil(std::log2(static_cast<double>(c.patterns)))));
  m.ports.push_back({"start_event", PortDir::kInput, 1, false});
  m.ports.push_back({"pattern_sel", PortDir::kInput, pat_bits, false});
  m.ports.push_back({"cfg_start", PortDir::kInput, aw, false});
  m.ports.push_back({"cfg_x_len", PortDir::kInput, 16, false});
  m.ports.push_back({"cfg_y_len", PortDir::kInput, 16, false});
  m.ports.push_back({"cfg_stride", PortDir::kInput, 16, false});
  m.ports.push_back({"cfg_offset", PortDir::kInput, aw, false});
  m.ports.push_back({"addr", PortDir::kOutput, aw, true});
  m.ports.push_back({"addr_valid", PortDir::kOutput, 1, true});
  m.ports.push_back({"pattern_done", PortDir::kOutput, 1, true});

  m.nets.push_back({"x_cnt", 16, true, 0});
  m.nets.push_back({"y_cnt", 16, true, 0});
  m.nets.push_back({"row_base", aw, true, 0});
  m.nets.push_back({"running", 1, true, 0});

  VStmt step = VIf(
      VBin(VBin(VId("x_cnt"), "+", VLit(1)), "<", VId("cfg_x_len")),
      {VNonBlocking(VId("x_cnt"), VBin(VId("x_cnt"), "+", VLit(1))),
       VNonBlocking(VId("addr"), VBin(VId("addr"), "+", VId("cfg_stride")))},
      {VIf(VBin(VBin(VId("y_cnt"), "+", VLit(1)), "<", VId("cfg_y_len")),
           {VSeq({VNonBlocking(VId("x_cnt"), VLit(0)),
                  VNonBlocking(VId("y_cnt"),
                               VBin(VId("y_cnt"), "+", VLit(1)))}),
            VNonBlocking(VId("row_base"),
                         VBin(VId("row_base"), "+", VId("cfg_offset"))),
            VNonBlocking(VId("addr"),
                         VBin(VId("row_base"), "+", VId("cfg_offset")))},
           {VSeq({VNonBlocking(VId("running"), Bit1(0)),
                  VNonBlocking(VId("addr_valid"), Bit1(0)),
                  VNonBlocking(VId("pattern_done"), Bit1(1))})})});

  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(
      NotRstN(),
      {VSeq({VNonBlocking(VId("x_cnt"), VLit(0)),
             VNonBlocking(VId("y_cnt"), VLit(0)),
             VNonBlocking(VId("row_base"), VLit(0)),
             VNonBlocking(VId("running"), Bit1(0))}),
       VSeq({VNonBlocking(VId("addr"), VLit(0)),
             VNonBlocking(VId("addr_valid"), Bit1(0)),
             VNonBlocking(VId("pattern_done"), Bit1(0))})},
      {VIf(VId("start_event"),
           {VSeq({VNonBlocking(VId("x_cnt"), VLit(0)),
                  VNonBlocking(VId("y_cnt"), VLit(0)),
                  VNonBlocking(VId("row_base"), VId("cfg_start"))}),
            VSeq({VNonBlocking(VId("addr"), VId("cfg_start")),
                  VNonBlocking(VId("addr_valid"), Bit1(1)),
                  VNonBlocking(VId("running"), Bit1(1))}),
            VNonBlocking(VId("pattern_done"), Bit1(0))},
           {VIf(VId("running"), {std::move(step)},
                {VNonBlocking(VId("pattern_done"), Bit1(0))})})})};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitCoordinator(const BlockConfig& c) {
  // Central FSM: one state per layer of the schedule, raising the
  // layer's pattern-trigger event when the previous layer's AGUs report
  // done (data-driven producer/consumer reconnection, paper §3.3).
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "Scheduling coordinator: " + DescribeBlock(c);
  AddClkRst(m);
  const int ev = c.fold_events;
  const int st_bits = std::max(
      1, static_cast<int>(
             std::ceil(std::log2(static_cast<double>(ev + 1)))));
  m.ports.push_back({"go", PortDir::kInput, 1, false});
  m.ports.push_back({"step_done", PortDir::kInput, 1, false});
  m.ports.push_back({"trigger", PortDir::kOutput, ev, true});
  m.ports.push_back({"state", PortDir::kOutput, st_bits, true});
  m.ports.push_back({"all_done", PortDir::kOutput, 1, true});

  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(
      NotRstN(),
      {VSeq({VNonBlocking(VId("state"), VLit(0)),
             VNonBlocking(VId("trigger"), VLit(0)),
             VNonBlocking(VId("all_done"), Bit1(0))})},
      {VIf(VBin(VId("go"), "&&", VBin(VId("state"), "==", VLit(0))),
           {VSeq({VNonBlocking(VId("state"), VLit(1)),
                  VNonBlocking(VId("trigger"), VLit(ev, 1, 'b')),
                  VNonBlocking(VId("all_done"), Bit1(0))})},
           {VIf(VBin(VId("step_done"), "&&",
                     VBin(VId("state"), "!=", VLit(0))),
                {VIf(VBin(VId("state"), "==", VLit(ev)),
                     {VSeq({VNonBlocking(VId("state"), VLit(0)),
                            VNonBlocking(VId("trigger"), VLit(0)),
                            VNonBlocking(VId("all_done"), Bit1(1))})},
                     {VNonBlocking(VId("state"),
                                   VBin(VId("state"), "+", VLit(1))),
                      VNonBlocking(VId("trigger"),
                                   VBin(VId("trigger"), "<<", VLit(1)))})},
                {VNonBlocking(VId("trigger"), VLit(0))})})})};
  m.always_blocks.push_back(std::move(a));
  return m;
}

VModule EmitBufferBank(const BlockConfig& c) {
  // Simple dual-port on-chip buffer of `depth` bytes, `lanes` elements
  // wide per access.
  VModule m;
  m.name = BlockModuleName(c);
  m.comment = "On-chip buffer bank: " + DescribeBlock(c);
  AddClkRst(m);
  const int w = c.bit_width * c.lanes;
  const std::int64_t words =
      std::max<std::int64_t>(1, c.depth * 8 / std::max(1, w));
  const int aw = std::max(
      1, static_cast<int>(
             std::ceil(std::log2(static_cast<double>(words)))));
  m.ports.push_back({"wr_en", PortDir::kInput, 1, false});
  m.ports.push_back({"wr_addr", PortDir::kInput, aw, false});
  m.ports.push_back({"wr_data", PortDir::kInput, w, false});
  m.ports.push_back({"rd_addr", PortDir::kInput, aw, false});
  m.ports.push_back({"rd_data", PortDir::kOutput, w, true});
  m.nets.push_back({"mem", w, true, words});
  VAlways a;
  a.sensitivity = "posedge clk";
  a.body = {VIf(VId("wr_en"),
                {VNonBlocking(VIndex(VId("mem"), VId("wr_addr")),
                              VId("wr_data"))},
                {}, VBranchStyle::kInline),
            VNonBlocking(VId("rd_data"),
                         VIndex(VId("mem"), VId("rd_addr")))};
  m.always_blocks.push_back(std::move(a));
  return m;
}

}  // namespace

std::string BlockModuleName(const BlockConfig& c) {
  std::ostringstream os;
  os << "db_" << BlockTypeName(c.type) << "_w" << c.bit_width;
  switch (c.type) {
    case BlockType::kSynergyNeuron:
      os << "_l" << c.lanes << (c.use_dsp ? "_dsp" : "_lut");
      break;
    case BlockType::kAccumulator:
    case BlockType::kPoolingUnit:
    case BlockType::kActivationUnit:
    case BlockType::kLrnUnit:
    case BlockType::kDropoutUnit:
      os << "_l" << c.lanes;
      break;
    case BlockType::kClassifier:
      os << "_k" << c.lanes;
      break;
    case BlockType::kApproxLut:
      os << "_d" << c.depth << (c.interpolate ? "_interp" : "_nearest");
      break;
    case BlockType::kConnectionBox:
      os << "_p" << c.ports;
      break;
    case BlockType::kAgu:
      os << "_" << AguRoleName(c.agu_role) << "_pat" << c.patterns;
      break;
    case BlockType::kCoordinator:
      os << "_ev" << c.fold_events;
      break;
    case BlockType::kBufferBank:
      os << "_l" << c.lanes << "_b" << c.depth;
      break;
  }
  return ToIdentifier(os.str());
}

VModule EmitBlockModule(const BlockConfig& c) {
  ValidateBlockConfig(c);
  switch (c.type) {
    case BlockType::kSynergyNeuron: return EmitSynergyNeuron(c);
    case BlockType::kAccumulator: return EmitAccumulator(c);
    case BlockType::kPoolingUnit: return EmitPoolingUnit(c);
    case BlockType::kLrnUnit: return EmitLrnUnit(c);
    case BlockType::kDropoutUnit: return EmitDropoutUnit(c);
    case BlockType::kClassifier: return EmitClassifier(c);
    case BlockType::kActivationUnit: return EmitActivationUnit(c);
    case BlockType::kApproxLut: return EmitApproxLut(c);
    case BlockType::kConnectionBox: return EmitConnectionBox(c);
    case BlockType::kAgu: return EmitAgu(c);
    case BlockType::kCoordinator: return EmitCoordinator(c);
    case BlockType::kBufferBank: return EmitBufferBank(c);
  }
  DB_THROW("unhandled block type");
}

}  // namespace db
