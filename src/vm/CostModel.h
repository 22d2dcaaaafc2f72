//===- vm/CostModel.h - Deterministic cycle cost model ---------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle cost model of the simulated CPU. This is the substitution for
/// the paper's real Pentium hardware (see DESIGN.md §1): every performance
/// phenomenon the paper reports is expressed as a relative cost here —
///
///   - per-opcode base latencies (isa/Opcodes.cpp) plus memory-operand costs;
///   - branch misprediction and taken-branch (fetch bubble) penalties;
///   - the Pentium 4's slow `inc`/`dec` (flag-merge stall) vs `add 1`,
///     which the strength-reduction client exploits (paper Section 4.2);
///   - runtime overheads: emulation dispatch, context switches, basic block
///     construction, the indirect-branch hashtable lookup.
///
/// All values are deterministic, so every benchmark is exactly repeatable.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_COSTMODEL_H
#define RIO_VM_COSTMODEL_H

#include "isa/Decode.h"
#include "isa/Opcodes.h"

namespace rio {

/// Processor generations the runtime can detect (dr_get_processor_family).
enum class CpuFamily {
  PentiumIII,
  PentiumIV,
};

/// Tunable cycle costs. Defaults are calibrated so that the Table 1 ladder
/// and Figure 5 shapes match the paper (see EXPERIMENTS.md).
struct CostModel {
  CpuFamily Family = CpuFamily::PentiumIV;

  /// Pipeline penalties.
  unsigned MispredictPenalty = 20; ///< P4's long pipeline
  unsigned TakenBranchCost = 1;    ///< fetch bubble on every taken branch

  /// Memory access latencies (load-to-use). P4 integer L1 loads are a few
  /// cycles; double-precision loads considerably more — which is what
  /// makes redundant load removal so profitable on the fp codes.
  unsigned LoadCostInt = 2;
  unsigned LoadCostFp = 5;
  unsigned StoreCost = 1;

  /// inc/dec extra latency (the P4 flag-merge stall). Zero on P3.
  unsigned IncDecExtra = 2;

  /// Runtime (DynamoRIO) overheads, charged by the core runtime:
  unsigned EmulateOverhead = 800;   ///< per-instruction emulation dispatch
  unsigned ContextSwitchCost = 300; ///< cache exit -> dispatcher state save
  unsigned DispatchCost = 80;       ///< dispatcher lookup + resume
  unsigned IblLookupCost = 22;      ///< in-cache indirect-branch hashtable hit
  unsigned HeadCounterCost = 6;     ///< trace-head counter bump in the stub
  unsigned BlockBuildPerInstr = 60; ///< decode+emit cost per instruction
  unsigned BlockBuildFixed = 400;   ///< per-fragment build overhead
  unsigned TraceBuildPerInstr = 40; ///< extra per-instruction trace cost
  unsigned CleanCallCost = 60;      ///< clientcall context save/restore
  unsigned FragmentReplaceCost = 800; ///< dr_replace_fragment relink work
  /// Installing an asynchronously re-optimized version at a publication
  /// point (core/Sideline.h): the app thread only swaps the link graph —
  /// the transform itself ran off the critical path — so this is cheaper
  /// than a full synchronous replace. See docs/sideline-cost-model.md.
  unsigned SidelinePublishCost = 500;
  unsigned FragmentEvictCost = 120; ///< unlink + slot reclaim for one victim
  unsigned RegionFlushCost = 200;   ///< dr_flush_region / SMC flush overhead
  /// Shared-cache mode only: banking one thread's slot window and restoring
  /// the next one's on a quantum context switch (the simulated analogue of
  /// re-pointing a TLS segment base; CacheSharing::Shared).
  unsigned ThreadContextSwapCost = 40;
  /// Client instrumentation cost per instruction *examined* at each level
  /// of detail (models the Table 2 asymmetry inside the cost model).
  unsigned ClientDecodeLevel02 = 4;
  unsigned ClientDecodeLevel3 = 8;
  unsigned ClientEncodeLevel4 = 30;

  /// Returns the execution cost in cycles of one decoded instruction,
  /// excluding branch-prediction effects (the Machine adds those).
  unsigned cyclesFor(const DecodedInstr &DI) const {
    unsigned Cycles = opcodeInfo(DI.Op).BaseCycles;
    if (Family == CpuFamily::PentiumIV &&
        (DI.Op == OP_inc || DI.Op == OP_dec))
      Cycles += IncDecExtra;
    for (unsigned I = 0; I != DI.NumSrcs; ++I)
      if (DI.Srcs[I].isMem() && DI.Op != OP_lea)
        Cycles += DI.Srcs[I].sizeBytes() == 8 ? LoadCostFp : LoadCostInt;
    for (unsigned I = 0; I != DI.NumDsts; ++I)
      if (DI.Dsts[I].isMem())
        Cycles += StoreCost;
    return Cycles;
  }

  /// Returns a model with Pentium III parameters (shorter pipeline, no
  /// inc/dec stall).
  static CostModel pentiumIII() {
    CostModel M;
    M.Family = CpuFamily::PentiumIII;
    M.MispredictPenalty = 10;
    M.IncDecExtra = 0;
    return M;
  }

  static CostModel pentiumIV() { return CostModel(); }
};

} // namespace rio

#endif // RIO_VM_COSTMODEL_H
