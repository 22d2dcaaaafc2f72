//===- tests/traceopt_test.cpp - Speculative trace optimizer tests -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace optimizer (core/TraceOpt.h):
///
///   * unit tests of the value-tracking pass, strength reduction, and the
///     liveness analyses they lean on (core/Analysis.h);
///   * the optimizer under the async sideline: its counters are fixed by
///     the seed.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Analysis.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "ir/Print.h"
#include "isa/Eflags.h"
#include "workloads/Workloads.h"

#include <memory>

using namespace rio;
using namespace rio::test;

namespace {

// Application memory sits below the runtime region in every configuration
// the tests build; 1 MiB is a comfortable stand-in base for unit tests.
constexpr uint32_t UnitRuntimeBase = 0x100000;
constexpr uint32_t AppA = 0x2000; // two non-overlapping app words
constexpr uint32_t AppB = 0x2100;

size_t listLength(InstrList &IL) {
  size_t N = 0;
  for (Instr *I = IL.first(); I; I = I->next())
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// The value-tracking pass
//===----------------------------------------------------------------------===//

TEST(ValuePass, RemovesReloadIntoSameRegister) {
  Arena A;
  InstrList IL(A);
  Operand MemA = Operand::memAbs(AppA, 4);
  IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
  IL.append(Instr::createSynth(
      A, OP_add, {Operand::reg(REG_ESI), Operand::reg(REG_EAX)}));
  IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
  ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
  EXPECT_EQ(S.LoadsRemoved, 1u);
  EXPECT_EQ(listLength(IL), 2u);
}

TEST(ValuePass, ForwardsReloadIntoOtherRegister) {
  Arena A;
  InstrList IL(A);
  Operand MemA = Operand::memAbs(AppA, 4);
  IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
  IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EBX), MemA}));
  ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
  EXPECT_EQ(S.LoadsForwarded, 1u);
  // The reload became a register copy: mov ebx, eax.
  Instr *Second = IL.first()->next();
  ASSERT_NE(Second, nullptr);
  EXPECT_EQ(Second->getOpcode(), OP_mov);
  ASSERT_TRUE(Second->getSrc(0).isReg());
  EXPECT_EQ(Second->getSrc(0).getReg(), REG_EAX);
  EXPECT_EQ(Second->getDst(0).getReg(), REG_EBX);
}

TEST(ValuePass, FoldsConstantsThroughMemory) {
  Arena A;
  InstrList IL(A);
  Operand MemA = Operand::memAbs(AppA, 4);
  IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::imm(7, 4)}));
  IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
  // RemoveLoads off so the fold path (not binding-forwarding) is exercised.
  ValuePassConfig Cfg;
  Cfg.RemoveLoads = false;
  ValuePassStats S = runValuePass(IL, UnitRuntimeBase, Cfg);
  EXPECT_EQ(S.ConstsFolded, 1u);
  Instr *Load = IL.first()->next();
  ASSERT_NE(Load, nullptr);
  ASSERT_TRUE(Load->getSrc(0).isImm());
  EXPECT_EQ(Load->getSrc(0).getImm(), 7);
}

TEST(ValuePass, ElidesDeadStoresOnlyWhenUnobserved) {
  Operand MemA = Operand::memAbs(AppA, 4);
  {
    // store ; store -> the first is dead.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EBX)}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.DeadStoresElided, 1u);
    EXPECT_EQ(listLength(IL), 1u);
  }
  {
    // store ; load ; store -> the load observed the first store: both stay.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_ECX), MemA}));
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EBX)}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.DeadStoresElided, 0u);
    EXPECT_EQ(listLength(IL), 3u);
  }
  {
    // store ; cti ; store -> the exit path may observe the first store.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(A, OP_jnz, {Operand::pc(0x1000)}));
    IL.append(Instr::createSynth(A, OP_mov, {MemA, Operand::reg(REG_EBX)}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.DeadStoresElided, 0u);
  }
}

TEST(ValuePass, FactsDieAtLabelsAndAliasingStores) {
  Operand MemA = Operand::memAbs(AppA, 4);
  {
    // A label is a join point: the binding does not survive it.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    IL.append(Instr::createLabel(A));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EBX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.LoadsForwarded + S.LoadsRemoved, 0u);
  }
  {
    // A register-relative store may alias any application word.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::mem(REG_EBX, 0, 4), Operand::reg(REG_ECX)}));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EDX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.LoadsForwarded + S.LoadsRemoved, 0u);
  }
  {
    // ...but a runtime-private slot store cannot: the fact survives.
    Arena A;
    InstrList IL(A);
    Operand Slot = Operand::memAbs(UnitRuntimeBase + 0x40, 4);
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    IL.append(Instr::createSynth(A, OP_mov, {Slot, Operand::reg(REG_ECX)}));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EDX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase);
    EXPECT_EQ(S.LoadsForwarded, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Strength reduction and the analyses under it
//===----------------------------------------------------------------------===//

TEST(StrengthReduce, RespectsCarryLiveness) {
  {
    // inc preserves CF; jb reads it -> the rewrite to add would be wrong.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_inc, {Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(A, OP_jb, {Operand::pc(0x1000)}));
    EXPECT_EQ(reduceIncDec(IL), 0u);
    EXPECT_EQ(IL.first()->getOpcode(), OP_inc);
  }
  {
    // A CTI right after lets CF escape the trace: still refused, even
    // though jz itself reads only ZF.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_inc, {Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(A, OP_jz, {Operand::pc(0x1000)}));
    EXPECT_EQ(reduceIncDec(IL), 0u);
  }
  {
    // A full flag writer before any reader kills the stale CF: legal.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_inc, {Operand::reg(REG_EAX)}));
    IL.append(Instr::createSynth(
        A, OP_cmp, {Operand::reg(REG_EBX), Operand::imm(3, 4)}));
    IL.append(Instr::createSynth(A, OP_jz, {Operand::pc(0x1000)}));
    EXPECT_EQ(reduceIncDec(IL), 1u);
    EXPECT_EQ(IL.first()->getOpcode(), OP_add);
    ASSERT_TRUE(IL.first()->getSrc(0).isImm());
    EXPECT_EQ(IL.first()->getSrc(0).getImm(), 1);
  }
  {
    // dec -> sub under the same rule.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(A, OP_dec, {Operand::reg(REG_EDX)}));
    IL.append(Instr::createSynth(
        A, OP_add, {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
    EXPECT_EQ(reduceIncDec(IL), 1u);
    EXPECT_EQ(IL.first()->getOpcode(), OP_sub);
  }
}

TEST(Analysis, RegisterLivenessSeesPartialByteWrites) {
  Arena A;
  {
    // mov al, 1 writes only the low byte: eax is NOT fully redefined, so a
    // conservative answer (live) is required at entry.
    InstrList IL(A);
    IL.append(Instr::createSynth(
        A, OP_mov_b, {Operand::reg(REG_AL), Operand::imm(1, 1)}));
    EXPECT_TRUE(registerLiveAt(IL.first(), REG_EAX));
    // Sub-register queries stay conservative as well.
    EXPECT_TRUE(registerLiveAt(IL.first(), REG_AL));
  }
  {
    // The full 32-bit write does redefine it.
    InstrList IL(A);
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
    EXPECT_FALSE(registerLiveAt(IL.first(), REG_EAX));
  }
  {
    // A partial write between entry and the full write does not hide it.
    InstrList IL(A);
    IL.append(Instr::createSynth(
        A, OP_mov_b, {Operand::reg(REG_AL), Operand::imm(1, 1)}));
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::reg(REG_EAX), Operand::imm(2, 4)}));
    EXPECT_FALSE(registerLiveAt(IL.first(), REG_EAX));
  }
}

TEST(Analysis, LiveEflagsAtBundleBoundaries) {
  Arena A;
  static const uint8_t Raw[] = {0x90};
  {
    // inc writes everything but CF; the bundle may read anything, so CF
    // (and only what inc left unwritten) must be reported live past it.
    InstrList IL(A);
    Instr *Inc = Instr::createSynth(A, OP_inc, {Operand::reg(REG_EAX)});
    IL.append(Inc);
    IL.append(Instr::createBundle(A, Raw, sizeof(Raw), 0x1000));
    EXPECT_NE(liveEflagsAt(Inc->next()) & EFLAGS_READ_CF, 0u);
    // ...which is exactly why strength reduction must refuse here.
    EXPECT_EQ(reduceIncDec(IL), 0u);
    EXPECT_EQ(IL.first()->getOpcode(), OP_inc);
  }
  {
    // add writes all six flags: a bundle after it cannot see stale flags,
    // so nothing is live before the add beyond what the add itself reads.
    InstrList IL(A);
    Instr *Add = Instr::createSynth(
        A, OP_add, {Operand::reg(REG_EAX), Operand::imm(1, 4)});
    IL.append(Add);
    IL.append(Instr::createBundle(A, Raw, sizeof(Raw), 0x1000));
    EXPECT_EQ(liveEflagsAt(Add), 0u);
  }
}

TEST(Analysis, GuardInstructionsAreFlagNeutral) {
  // The inline-check idiom of core/IbInline.cpp is mov/lea/jecxz/jmp
  // precisely because none of them touches eflags; pin that so an
  // opcode-table change cannot silently break the checks' transparency.
  Arena A;
  Instr *Seq[] = {
      Instr::createSynth(A, OP_mov,
                         {Operand::memAbs(AppA, 4), Operand::reg(REG_ECX)}),
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_ECX), Operand::memAbs(AppA, 4)}),
      Instr::createSynth(A, OP_lea,
                         {Operand::reg(REG_ECX), Operand::mem(REG_ECX, -7, 4)}),
      Instr::createSynth(A, OP_jecxz, {Operand::pc(0)}),
      Instr::createSynth(A, OP_jmp, {Operand::pc(0)}),
  };
  for (Instr *I : Seq) {
    ASSERT_NE(I, nullptr);
    EXPECT_EQ(I->getEflags() & (EFLAGS_READ_ALL | EFLAGS_WRITE_ALL), 0u)
        << instrToString(*I);
  }
}

TEST(Analysis, CollapseRedundantSpillsAdversarialChain) {
  // An adversarial load/store chain over two slots and two registers:
  // every adjacent pair that cancels must be collapsed in ONE bounded
  // call, and the removal count must not depend on rescan luck. The old
  // restart-from-the-head fixpoint was quadratic on exactly this shape.
  Arena A;
  InstrList IL(A);
  Operand S1 = Operand::memAbs(UnitRuntimeBase + 0x10, 4);
  Operand S2 = Operand::memAbs(UnitRuntimeBase + 0x14, 4);
  Operand Eax = Operand::reg(REG_EAX);
  Operand Ebx = Operand::reg(REG_EBX);
  // store S1,eax ; load eax,S1  (cancels: load dropped)
  // store S2,ebx ; load ebx,S2  (cancels)
  // load eax,S1 ; store S1,eax  (cancels: store dropped)
  // load eax,S1 ; mov eax,ebx   (dead slot load dropped)
  // repeated 8 times, interleaved with labels that fence the runs.
  for (int Round = 0; Round != 8; ++Round) {
    IL.append(Instr::createSynth(A, OP_mov, {S1, Eax}));
    IL.append(Instr::createSynth(A, OP_mov, {Eax, S1}));
    IL.append(Instr::createSynth(A, OP_mov, {S2, Ebx}));
    IL.append(Instr::createSynth(A, OP_mov, {Ebx, S2}));
    IL.append(Instr::createSynth(A, OP_mov, {Eax, S1}));
    IL.append(Instr::createSynth(A, OP_mov, {S1, Eax}));
    IL.append(Instr::createSynth(A, OP_mov, {Eax, S1}));
    IL.append(Instr::createSynth(A, OP_mov, {Eax, Ebx}));
    IL.append(Instr::createLabel(A));
  }
  size_t Before = listLength(IL);
  unsigned Removed = collapseRedundantSpills(IL);
  // Per round: the two reload pairs drop one load each, the writeback
  // pair drops its store, and each of the two loads left adjacent to a
  // full redefinition of its register drops — 5 removals x 8 rounds,
  // independent of rescan order.
  EXPECT_EQ(Removed, 40u);
  EXPECT_EQ(listLength(IL), Before - Removed);
  // Convergence: a second pass finds nothing (no oscillation, no leftover
  // adjacent pair the bounded scan should have caught).
  EXPECT_EQ(collapseRedundantSpills(IL), 0u);
}

//===----------------------------------------------------------------------===//
// The optimizer under the async sideline
//===----------------------------------------------------------------------===//

/// One run of the riodyn -sideline -traceopt wiring.
struct SidelineRun {
  std::unique_ptr<Machine> M;
  std::unique_ptr<TraceOptClient> Client;
  std::unique_ptr<SidelineOptimizer> Sideline;
  std::unique_ptr<Runtime> RT;
  RunResult R;
};

SidelineRun runSideline(const Program &P, RuntimeConfig Config) {
  SidelineRun S;
  S.M = std::make_unique<Machine>();
  EXPECT_TRUE(loadProgram(*S.M, P));
  S.Client = std::make_unique<TraceOptClient>();
  S.Sideline =
      std::make_unique<SidelineOptimizer>(*S.Client, SidelineMode::Async);
  Config.SidelinePump = S.Sideline.get();
  S.RT = std::make_unique<Runtime>(*S.M, Config, S.Sideline.get());
  S.R = runWithSideline(*S.RT, *S.Sideline);
  return S;
}

TEST(TraceOptSpec, TransformCountersAreDeterministic) {
  // The optimizer's counters count exactly the traces the sideline
  // transforms at its publication points, never a job that went stale
  // first, so one seed fixes them. eon under IB inlining (one program of
  // perfbench's adaptive_ib configuration) supersedes a trace while its
  // sideline job is in flight; mgrid's traces give the value pass work.
  struct Case {
    const char *Name;
    bool IbInline;
  };
  uint64_t StaleDrops = 0, IncDec = 0, Rewrites = 0;
  for (Case C : {Case{"eon", true}, Case{"mgrid", false}}) {
    SCOPED_TRACE(C.Name);
    const Workload *W = findWorkload(C.Name);
    ASSERT_NE(W, nullptr);
    Program P = buildWorkload(*W, W->TestScale);
    RuntimeConfig Config = RuntimeConfig::full();
    Config.IbInline = C.IbInline;
    SidelineRun A = runSideline(P, Config);
    SidelineRun B = runSideline(P, Config);
    ASSERT_EQ(A.R.Status, RunStatus::Exited) << A.R.FaultReason;
    ASSERT_EQ(B.R.Status, RunStatus::Exited) << B.R.FaultReason;
    EXPECT_EQ(A.Client->tracesOptimized(), A.Sideline->versionsPublished());
    EXPECT_GE(A.Client->tracesOptimized(), 1u);
    const ValuePassStats &VA = A.Client->valueStats();
    const ValuePassStats &VB = B.Client->valueStats();
    EXPECT_EQ(A.Client->tracesOptimized(), B.Client->tracesOptimized());
    EXPECT_EQ(A.Client->incDecReduced(), B.Client->incDecReduced());
    EXPECT_EQ(VA.LoadsRemoved, VB.LoadsRemoved);
    EXPECT_EQ(VA.LoadsForwarded, VB.LoadsForwarded);
    EXPECT_EQ(VA.ConstsFolded, VB.ConstsFolded);
    EXPECT_EQ(VA.DeadStoresElided, VB.DeadStoresElided);
    StaleDrops += A.Sideline->staleDrops();
    IncDec += A.Client->incDecReduced();
    Rewrites += VA.LoadsRemoved + VA.LoadsForwarded + VA.ConstsFolded +
                VA.DeadStoresElided;
  }
  EXPECT_GE(StaleDrops, 1u);
  EXPECT_GE(IncDec, 1u);
  EXPECT_GE(Rewrites, 1u);
}

} // namespace
