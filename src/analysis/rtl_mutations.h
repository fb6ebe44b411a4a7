// Deliberate single-class RTL corruptions, shared by the rtl.* negative
// tests and the `deepburning verify --self-test-break-rtl` fixture path
// (tests/cli_exit_codes.cmake).  Each mutation class is designed to trip
// exactly one rtl.* rule at error severity (dead.reg trips rtl.dead at
// warning severity and leaves the design legal), proving the rules
// neither alias nor shadow each other.
#pragma once

#include <string>
#include <vector>

#include "rtl/verilog.h"

namespace db::analysis {

/// The mutation classes BreakRtlRule knows, in catalogue order, with the
/// rule each one trips:
///   drive.unbound   rtl.drive      remove an input-port binding whose
///                                  child reads the port
///   drive.double    rtl.drive      point a second continuous assign at
///                                  an already-driven target
///   width.slice     rtl.width      widen a rhs slice one bit past the
///                                  declared net
///   clock.blocking  rtl.clock      turn a non-blocking assignment in a
///                                  clocked block into a blocking one
///   comb.cycle      rtl.comb.loop  splice two mutually-dependent
///                                  assigns into the top module
///   dead.reg        rtl.dead       add a register that is written every
///                                  cycle and never read (warning only)
std::vector<std::string> BreakableRtlMutations();

/// Minimally corrupt `design` per the given mutation class.  Throws
/// db::Error for an unknown class or RTL without the construct the
/// class needs.
void BreakRtlRule(VDesign& design, const std::string& mutation);

}  // namespace db::analysis
