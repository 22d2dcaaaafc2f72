//===- tests/traceopt_test.cpp - Speculative trace optimizer tests -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace optimizer (core/TraceOpt.h), both tiers:
///
///   * unit tests of the value-tracking pass, strength reduction, and the
///     liveness analyses they lean on (core/Analysis.h);
///   * end-to-end speculation under the async sideline: guards hold,
///     misspeculation deoptimizes to correct execution, storms blacklist;
///   * speculation history across persistence (dr_cache_save/load), fork
///     templates, and guard-failure deoptimization publishing under
///     suspended threads (on-stack replacement).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "clients/Clients.h"
#include "core/Analysis.h"
#include "core/Sideline.h"
#include "core/ThreadedRunner.h"
#include "core/TraceOpt.h"
#include "ir/Print.h"
#include "isa/Eflags.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

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

TEST(ValuePass, GuardedFactsSurviveLabelsButNotBundlesOrAliases) {
  Operand MemA = Operand::memAbs(AppA, 4);
  ValuePassConfig Cfg;
  Cfg.RemoveLoads = false;
  Cfg.GuardedFacts.push_back({MemA, 42});
  {
    // Guarded entry facts hold on every path: the fold happens past a label
    // where a scan-discovered constant would have died.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createLabel(A));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase, Cfg);
    EXPECT_EQ(S.ConstsFolded, 1u);
    Instr *Load = IL.first()->next();
    ASSERT_NE(Load, nullptr);
    ASSERT_TRUE(Load->getSrc(0).isImm());
    EXPECT_EQ(Load->getSrc(0).getImm(), 42);
  }
  {
    // A bundle is unexamined code: even guarded facts die.
    Arena A;
    InstrList IL(A);
    static const uint8_t Raw[] = {0x90};
    IL.append(Instr::createBundle(A, Raw, sizeof(Raw), 0x1000));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase, Cfg);
    EXPECT_EQ(S.ConstsFolded, 0u);
  }
  {
    // An aliasing store kills the guarded fact too.
    Arena A;
    InstrList IL(A);
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::mem(REG_EBX, 0, 4), Operand::reg(REG_ECX)}));
    IL.append(Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX), MemA}));
    ValuePassStats S = runValuePass(IL, UnitRuntimeBase, Cfg);
    EXPECT_EQ(S.ConstsFolded, 0u);
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
  // The guard idiom is mov/lea/jecxz/jmp precisely because none of them
  // touches eflags; pin that so an opcode-table change cannot silently
  // break guard transparency.
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
// End-to-end speculation under the async sideline
//===----------------------------------------------------------------------===//

/// A loop whose body loads the same application word several times per
/// iteration; [val] never changes unless the cold flip path runs. The
/// output folds every load into the printed sum, so a wrong speculation
/// that failed to bail out is caught by the native comparison.
///   FlipAt == 0   : [val] is genuinely loop-invariant.
///   FlipAt == K   : one cold-path store rewrites [val] when ecx == K.
///   FlipMask == M : the cold path runs whenever (ecx & M) == 0 (a storm).
std::string specSource(int Iters, int FlipAt, int FlipMask) {
  std::string Cold;
  if (FlipAt > 0)
    Cold = "  cmp ecx, " + std::to_string(FlipAt) + "\n  je flip\n";
  else if (FlipMask > 0)
    Cold = "  mov eax, ecx\n  and eax, " + std::to_string(FlipMask) +
           "\n  jz flip\n";
  return R"(
    .entry main
    val: .word 7
    main:
      mov esi, 0
      mov ecx, )" + std::to_string(Iters) + R"(
    loop:
      mov eax, [val]
      add esi, eax
      mov ebx, [val]
      add esi, ebx
      mov edx, [val]
      add esi, edx
      and esi, 0xFFFFFF
)" + Cold + R"(
    back:
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    flip:
      mov eax, [val]
      add eax, 13
      and eax, 1023
      mov [val], eax
      jmp back
  )";
}

/// Everything one speculative run owns, exactly the riodyn wiring: the
/// profiler's trace-sample hook feeds TraceOptClient::observe, a hit asks
/// the async sideline for a re-optimization pass, and the publication
/// point emits the guards.
struct SpecRun {
  std::unique_ptr<Machine> M;
  std::unique_ptr<SampleProfile> Profiler;
  std::unique_ptr<TraceOptClient> Client;
  std::unique_ptr<SidelineOptimizer> Sideline;
  std::unique_ptr<Runtime> RT;
  RunResult R;
};

SpecRun runSpec(const Program &P, RuntimeConfig Config = RuntimeConfig::full(),
                TraceOptOptions Opts = TraceOptOptions(),
                uint64_t SampleInterval = 200) {
  SpecRun S;
  S.M = std::make_unique<Machine>();
  EXPECT_TRUE(loadProgram(*S.M, P));
  Opts.Speculate = true;
  S.Profiler = std::make_unique<SampleProfile>(SampleInterval);
  S.Client = std::make_unique<TraceOptClient>(Opts);
  S.Sideline =
      std::make_unique<SidelineOptimizer>(*S.Client, SidelineMode::Async);
  Config.SidelinePump = S.Sideline.get();
  Config.Profiler = S.Profiler.get();
  S.RT = std::make_unique<Runtime>(*S.M, Config, S.Sideline.get());
  Runtime *RTP = S.RT.get();
  SidelineOptimizer *SP = S.Sideline.get();
  TraceOptClient *TC = S.Client.get();
  S.Profiler->setTraceSampleHook([RTP, SP, TC](uint32_t Tag, uint64_t N) {
    if (TC->observe(*RTP, Tag, N))
      SP->requestReopt(*RTP, Tag);
  });
  S.R = runWithSideline(*S.RT, *S.Sideline);
  return S;
}

TEST(TraceOptSpec, StableSiteSpeculatesAndHolds) {
  Program P = assembleOrDie(specSource(6000, 0, 0));
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  SpecRun S = runSpec(P);
  ASSERT_EQ(S.R.Status, RunStatus::Exited) << S.R.FaultReason;
  EXPECT_EQ(S.M->output(), Native.Output);
  // The invariant site was speculated and the guards never fired.
  EXPECT_GE(S.Client->speculationsApplied(), 1u);
  EXPECT_GE(S.Client->guardsEmitted(), 1u);
  EXPECT_GE(S.Client->publishStats().ConstsFolded, 1u);
  EXPECT_EQ(S.RT->stats().get("traceopt_guard_failures"), 0u);
  EXPECT_EQ(S.RT->stats().get("traceopt_speculations"),
            S.Client->speculationsApplied());
  EXPECT_TRUE(S.RT->traceoptBlacklist().empty());

  // The profiler rides the simulated clock: the whole speculative schedule
  // is deterministic, cycle for cycle.
  SpecRun Again = runSpec(P);
  ASSERT_EQ(Again.R.Status, RunStatus::Exited);
  EXPECT_EQ(Again.R.Cycles, S.R.Cycles);
  EXPECT_EQ(Again.Client->speculationsApplied(),
            S.Client->speculationsApplied());
}

TEST(TraceOptSpec, MisspeculationDeoptimizesToCorrectExecution) {
  // [val] is stable long enough to be speculated, then a cold-path store
  // rewrites it: the guard must fail, charge DeoptCost, and rebuild a
  // pristine body that computes the same sum the native machine does.
  Program P = assembleOrDie(specSource(6000, 2000, 0));
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  SpecRun S = runSpec(P);
  ASSERT_EQ(S.R.Status, RunStatus::Exited) << S.R.FaultReason;
  EXPECT_EQ(S.M->output(), Native.Output);
  EXPECT_GE(S.Client->speculationsApplied(), 1u);
  EXPECT_GE(S.RT->stats().get("traceopt_guard_failures"), 1u);
  EXPECT_GE(S.RT->stats().get("deoptimizations"), 1u);
  AppPc Tag = P.symbol("loop");
  EXPECT_GE(S.RT->traceoptGuardFailures(Tag), 1u);
  EXPECT_EQ(dr_traceopt_guard_failures(S.RT.get(), Tag),
            S.RT->traceoptGuardFailures(Tag));
}

TEST(TraceOptSpec, DeoptStormBlacklistsTheTag) {
  // The flip path runs every 1024 iterations: each re-speculation is
  // refuted a few thousand cycles later. After TraceOptBlacklistAfter
  // failures the tag must be pinned un-speculatable for good.
  Program P = assembleOrDie(specSource(30000, 0, 1023));
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  TraceOptOptions Opts;
  Opts.StableSamples = 2;
  SpecRun S = runSpec(P, RuntimeConfig::full(), Opts, 150);
  ASSERT_EQ(S.R.Status, RunStatus::Exited) << S.R.FaultReason;
  EXPECT_EQ(S.M->output(), Native.Output);

  AppPc Tag = P.symbol("loop");
  ASSERT_TRUE(S.RT->traceoptBlacklisted(Tag));
  EXPECT_GE(S.RT->stats().get("traceopt_blacklisted"), 1u);
  EXPECT_GE(S.RT->traceoptGuardFailures(Tag),
            uint32_t(RuntimeConfig::full().TraceOptBlacklistAfter));

  // The dr_ view agrees, including the two-call sizing idiom.
  EXPECT_TRUE(dr_traceopt_blacklisted(S.RT.get(), Tag));
  uint32_t Total = dr_traceopt_blacklist(S.RT.get(), nullptr, 0);
  ASSERT_GE(Total, 1u);
  std::vector<app_pc> Tags(Total);
  EXPECT_EQ(dr_traceopt_blacklist(S.RT.get(), Tags.data(), Total), Total);
  EXPECT_NE(std::find(Tags.begin(), Tags.end(), Tag), Tags.end());
}

TEST(TraceOptSpec, TransformCountersAreDeterministic) {
  // The non-speculative tier's counters count exactly the traces the
  // sideline transforms at its publication points, never a job that went
  // stale first, so one seed fixes them. vortex under IB inlining (the
  // adaptive_ib configuration of perfbench) supersedes a trace while its
  // sideline job is in flight.
  const Workload *W = findWorkload("vortex");
  Program P = buildWorkload(*W, W->TestScale);
  RuntimeConfig Config = RuntimeConfig::full();
  Config.IbInline = true;
  SpecRun A = runSpec(P, Config);
  SpecRun B = runSpec(P, Config);
  ASSERT_EQ(A.R.Status, RunStatus::Exited) << A.R.FaultReason;
  ASSERT_EQ(B.R.Status, RunStatus::Exited) << B.R.FaultReason;
  EXPECT_GE(A.Sideline->staleDrops(), 1u);
  EXPECT_EQ(A.Client->tracesOptimized(), A.Sideline->versionsPublished());
  const ValuePassStats &VA = A.Client->valueStats();
  const ValuePassStats &VB = B.Client->valueStats();
  EXPECT_GE(A.Client->tracesOptimized(), 1u);
  EXPECT_GE(A.Client->incDecReduced(), 1u);
  EXPECT_GE(VA.LoadsRemoved + VA.LoadsForwarded + VA.ConstsFolded +
                VA.DeadStoresElided,
            1u);
  EXPECT_EQ(A.Client->tracesOptimized(), B.Client->tracesOptimized());
  EXPECT_EQ(A.Client->incDecReduced(), B.Client->incDecReduced());
  EXPECT_EQ(VA.LoadsRemoved, VB.LoadsRemoved);
  EXPECT_EQ(VA.LoadsForwarded, VB.LoadsForwarded);
  EXPECT_EQ(VA.ConstsFolded, VB.ConstsFolded);
  EXPECT_EQ(VA.DeadStoresElided, VB.DeadStoresElided);
}

//===----------------------------------------------------------------------===//
// Speculation history across persistence and forking
//===----------------------------------------------------------------------===//

TEST(TraceOptPersist, BlacklistSurvivesSaveAndLoad) {
  Program P = assembleOrDie(specSource(30000, 0, 1023));
  TraceOptOptions Opts;
  Opts.StableSamples = 2;
  SpecRun S = runSpec(P, RuntimeConfig::full(), Opts, 150);
  ASSERT_EQ(S.R.Status, RunStatus::Exited) << S.R.FaultReason;
  AppPc Tag = P.symbol("loop");
  ASSERT_TRUE(S.RT->traceoptBlacklisted(Tag));
  uint32_t Fails = S.RT->traceoptGuardFailures(Tag);
  ASSERT_GE(Fails, 1u);

  std::string Path = testing::TempDir() + "traceopt_persist_test.riocache";
  ASSERT_TRUE(dr_cache_save(S.RT.get(), Path.c_str()));

  // A cold runtime warm-started from the image refuses to re-learn the
  // lesson the hard way: the blacklist and failure counters are restored
  // before the first speculation could be planned.
  Machine M2;
  ASSERT_TRUE(loadProgram(M2, P));
  Runtime RT2(M2, RuntimeConfig::full());
  ASSERT_TRUE(dr_cache_load(&RT2, Path.c_str()));
  EXPECT_TRUE(RT2.traceoptBlacklisted(Tag));
  EXPECT_EQ(RT2.traceoptGuardFailures(Tag), Fails);
  // And the warm-started run still computes the right answer.
  EXPECT_EQ(RT2.run().Status, RunStatus::Exited);
  EXPECT_EQ(M2.output(), S.M->output());
  std::remove(Path.c_str());
}

TEST(TraceOptFork, SpeculationHistoryFollowsForkAndUnshare) {
  Program P = assembleOrDie(specSource(30000, 0, 1023));
  TraceOptOptions Opts;
  Opts.StableSamples = 2;
  SpecRun S = runSpec(P, RuntimeConfig::full(), Opts, 150);
  ASSERT_EQ(S.R.Status, RunStatus::Exited) << S.R.FaultReason;
  AppPc Tag = P.symbol("loop");
  ASSERT_TRUE(S.RT->traceoptBlacklisted(Tag));
  uint32_t Fails = S.RT->traceoptGuardFailures(Tag);

  // The sideline stack (SidelineOptimizer over TraceOptClient) is
  // persist-safe end to end, so the warmed runtime can freeze directly.
  S.M->resetForRun();
  S.RT->resetThreadForRun();
  std::string Err;
  ASSERT_TRUE(S.RT->freezeTemplate(&Err)) << Err;

  // The fork's flat copy hands the tenant the verdicts immediately...
  Machine TenantM(*S.M);
  auto Tenant = Runtime::forkFrom(*S.RT, TenantM, &Err);
  ASSERT_NE(Tenant, nullptr) << Err;
  EXPECT_TRUE(Tenant->isForked());
  EXPECT_TRUE(Tenant->traceoptBlacklisted(Tag));
  EXPECT_EQ(Tenant->traceoptGuardFailures(Tag), Fails);

  // ...and the unshare replay (which rebuilds all metadata from the frozen
  // image) must not rewind them either.
  Tenant->flushCaches();
  EXPECT_FALSE(Tenant->isForked());
  EXPECT_TRUE(Tenant->traceoptBlacklisted(Tag));
  EXPECT_EQ(Tenant->traceoptGuardFailures(Tag), Fails);
}

//===----------------------------------------------------------------------===//
// Guard failure under suspended threads: deopt publication + OSR
//===----------------------------------------------------------------------===//

/// Three workers hammer one shared inner loop whose body reads [specval]
/// in a self-cancelling pattern (add then sub), so the printed sum is
/// independent of whatever the test writes into the word. Worker 0's
/// outer loop carries the driver hook block.
Program sharedSpecProgram(int Workers, int Outer, int Inner) {
  std::string S = R"(
    specval: .word 7
    results: .space 32
    flags:   .space 32
    stacks:  .space 8192
    main:
  )";
  for (int W = 0; W != Workers; ++W) {
    S += "  mov ebx, worker" + std::to_string(W) + "\n";
    S += "  mov ecx, stacks+" + std::to_string((W + 1) * 1024) + "\n";
    S += "  mov eax, 5\n  int 0x80\n"; // thread_create
  }
  S += "join:\n";
  for (int W = 0; W != Workers; ++W) {
    S += "  mov eax, [flags+" + std::to_string(W * 4) + "]\n";
    S += "  test eax, eax\n  jz join\n";
  }
  S += "  mov esi, 0\n";
  for (int W = 0; W != Workers; ++W)
    S += "  add esi, [results+" + std::to_string(W * 4) + "]\n";
  S += "  and esi, 0xFFFFFF\n";
  S += "  mov ebx, esi\n  mov eax, 2\n  int 0x80\n";
  S += "  mov ebx, 0\n  mov eax, 1\n  int 0x80\n";
  for (int W = 0; W != Workers; ++W) {
    std::string Id = std::to_string(W);
    S += "worker" + Id + ":\n";
    S += "  mov esi, 0\n";
    S += "  mov edi, " + std::to_string(Outer + W * 7) + "\n";
    S += "wloop" + Id + ":\n";
    S += "  call shared_work\n";
    S += "  dec edi\n  jnz wloop" + Id + "\n";
    S += "  mov [results+" + std::to_string(W * 4) + "], esi\n";
    S += "  mov eax, 1\n  mov [flags+" + std::to_string(W * 4) + "], eax\n";
    S += "  mov eax, 6\n  int 0x80\n"; // thread_exit
  }
  S += R"(
    shared_work:
      mov edx, )" + std::to_string(Inner) + R"(
      swloop:
        mov eax, [specval]
        add esi, eax
        mov ebx, [specval]
        sub esi, ebx
        add esi, edx
        and esi, 0xFFFFFF
        dec edx
        jnz swloop
      ret
  )";
  return assembleOrDie(S);
}

/// From worker 0's outer loop, drives the speculative tier by hand — the
/// async sideline machinery is single-runtime, but the protocol under it
/// (observe -> guarded publication -> guard failure -> deopt publication)
/// is exactly what the dispatcher executes here — then falsifies the
/// speculation so every other worker's next trace entry takes the guard
/// exit while threads sit suspended mid-trace.
class SpecStormDriver : public Client {
public:
  AppPc HookTag = 0;
  AppPc TargetTag = 0;
  uint32_t ValAddr = 0;
  int MaxRounds = 12;
  int Rounds = 0;
  TraceOptClient TO;

  static TraceOptOptions driverOpts() {
    TraceOptOptions O;
    O.Speculate = true;
    O.StableSamples = 1; // one observation suffices: the driver is the clock
    return O;
  }
  SpecStormDriver() : TO(driverOpts()) {}

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Tag != HookTag)
      return;
    uint32_t Id = RT.registerCleanCall([this](CleanCallContext &Ctx) {
      Runtime &RT = Ctx.RT;
      if (Rounds >= MaxRounds || RT.traceoptBlacklisted(TargetTag))
        return;
      Fragment *F = RT.lookupFragment(TargetTag);
      if (!F || !F->isTrace() || F->TraceBlocks.empty())
        return;
      // Never republish a body stitched through the hook block: the
      // rebuild would drop this instrumentation.
      if (std::find(F->TraceBlocks.begin(), F->TraceBlocks.end(), HookTag) !=
          F->TraceBlocks.end())
        return;
      if (!TO.observe(RT, TargetTag, 1))
        return;
      Arena A;
      InstrList *IL = RT.decodeFragment(A, TargetTag);
      if (!IL)
        return;
      TO.onSidelinePublish(RT, TargetTag, *IL);
      if (!RT.publishVersion(TargetTag, *IL))
        return;
      ++Rounds;
      // Falsify the speculated value: the next entry into the guarded
      // body — by any thread, including ones about to be resumed inside
      // the retired version — bails to the dispatcher and deoptimizes.
      uint32_t Cur = 0;
      RT.machine().mem().read32(ValAddr, Cur);
      RT.machine().mem().write32(ValAddr, Cur + 13);
    });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    ASSERT_NE(Call, nullptr);
    Block.prepend(Call);
  }
};

uint64_t sumThreadedStat(ThreadedRunner &Runner, const char *Name) {
  uint64_t Sum = 0;
  std::set<Runtime *> Seen;
  for (unsigned Tid = 0; Tid != Runner.threadsSeen(); ++Tid)
    if (Runtime *RT = Runner.runtimeFor(Tid))
      if (Seen.insert(RT).second)
        Sum += RT->stats().get(Name);
  return Sum;
}

TEST(TraceOptThreads, GuardFailureDeoptTransfersSuspendedThreadsViaOsr) {
  Program P = sharedSpecProgram(3, 260, 40);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited) << NR.FaultReason;

  RuntimeConfig Config = RuntimeConfig::full();
  Config.Sharing = CacheSharing::Shared;
  Config.ThreadQuantum = 700; // frequent mid-fragment suspensions
  Config.TraceOptBlacklistAfter = 64; // let the storm run all its rounds
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  SpecStormDriver C;
  C.HookTag = P.symbol("wloop0");
  C.TargetTag = P.symbol("swloop");
  C.ValAddr = P.symbol("specval");
  ThreadedRunner Runner(M, Config, &C);
  RunResult R = Runner.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;

  // Transparency across the whole storm: [specval] cancels out of every
  // worker's sum, so the output must match the unperturbed native run.
  EXPECT_EQ(M.output(), Native.output());

  // The storm ran: guarded versions were published, every falsified guard
  // failed at the dispatcher, and each failure deoptimized the tag.
  EXPECT_GE(C.Rounds, 2);
  EXPECT_GE(sumThreadedStat(Runner, "traceopt_guard_failures"), 2u);
  EXPECT_GE(sumThreadedStat(Runner, "deoptimizations"), 2u);
  EXPECT_GE(sumThreadedStat(Runner, "sideline_versions_published"), 2u);
  // Four contexts share one runtime and one cache: with this many
  // publication rounds against a 700-cycle quantum, some thread was
  // suspended inside a retired body and had to be moved by on-stack
  // replacement rather than resumed into stale bytes.
  EXPECT_GE(sumThreadedStat(Runner, "osr_transfers"), 1u);
}

} // namespace
