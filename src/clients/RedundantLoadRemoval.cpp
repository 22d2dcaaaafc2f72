//===- clients/RedundantLoadRemoval.cpp - RLR on traces (paper S4.1) ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Redundant load removal, applied dynamically to traces. IA-32's register
/// scarcity makes compilers spill locals to the stack and reload them;
/// along a linear trace the reloaded value is often still in a register.
/// A load whose memory operand is *bound* (a prior load from or store to
/// the identical operand whose register still holds the value) is deleted
/// (same register) or turned into a register-to-register copy.
///
/// The binding scan this client introduced grew into the trace optimizer's
/// generalized value-tracking pass (core/TraceOpt.h); the client is now the
/// load-removal-only configuration of that engine. Replacement
/// instructions come from the InstrList's own arena.
///
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"

#include "core/Runtime.h"
#include "core/TraceOpt.h"

using namespace rio;

void RlrClient::onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) {
  (void)Tag;
  ValuePassConfig Cfg;
  Cfg.RemoveLoads = true;
  Cfg.FoldConsts = false;
  Cfg.EliminateDeadStores = false;
  ValuePassStats Stats =
      runValuePass(Trace, RT.machine().runtimeBase(), Cfg);
  Removed += Stats.LoadsRemoved;
  Forwarded += Stats.LoadsForwarded;
}
