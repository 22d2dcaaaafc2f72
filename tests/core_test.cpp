//===- tests/core_test.cpp - Runtime (dispatcher/cache/traces) tests ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Runtime.h"

using namespace rio;
using namespace rio::test;

namespace {

/// Runs \p Prog under the runtime with \p Config (and optional client).
struct RuntimeRun {
  RunResult Result;
  std::string Output;
  StatisticSet Stats;
};

RuntimeRun runUnderRio(const Program &Prog, const RuntimeConfig &Config,
                       Client *TheClient = nullptr,
                       const MachineConfig &MC = MachineConfig()) {
  Machine M(MC);
  EXPECT_TRUE(loadProgram(M, Prog));
  Runtime RT(M, Config, TheClient);
  RuntimeRun R;
  R.Result = RT.run();
  R.Output = M.output();
  R.Stats = RT.stats();
  return R;
}

/// The transparency property: output, exit code and instruction-visible
/// behaviour must be identical to native under every configuration.
void expectTransparent(const std::string &Source) {
  Program Prog = assembleOrDie(Source);
  NativeRun Native = runNative(Prog);
  ASSERT_EQ(Native.Status, RunStatus::Exited)
      << "native run failed: " << Native.FaultReason;
  const RuntimeConfig Configs[] = {
      RuntimeConfig::emulate(),      RuntimeConfig::bbCacheOnly(),
      RuntimeConfig::linkDirect(),   RuntimeConfig::linkIndirect(),
      RuntimeConfig::full(),
  };
  const char *Names[] = {"emulate", "bbcache", "linkdirect", "linkindirect",
                         "full"};
  for (size_t I = 0; I != std::size(Configs); ++I) {
    RuntimeRun R = runUnderRio(Prog, Configs[I]);
    EXPECT_EQ(R.Result.Status, RunStatus::Exited)
        << Names[I] << " faulted: " << R.Result.FaultReason;
    EXPECT_EQ(R.Result.ExitCode, Native.ExitCode) << Names[I];
    EXPECT_EQ(R.Output, Native.Output) << Names[I];
  }
}

//===----------------------------------------------------------------------===//
// Transparency across configurations
//===----------------------------------------------------------------------===//

TEST(CoreTransparency, StraightLine) {
  expectTransparent(R"(
    main:
      mov eax, 3
      add eax, 4
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
}

TEST(CoreTransparency, LoopsAndBranches) {
  expectTransparent(R"(
    main:
      mov ecx, 100
      mov eax, 0
    loop:
      add eax, ecx
      test ecx, 1
      jz even
      add eax, 7
    even:
      dec ecx
      jnz loop
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
}

TEST(CoreTransparency, CallsAndReturns) {
  expectTransparent(R"(
    main:
      mov esi, 0
      mov ecx, 60
    loop:
      mov eax, ecx
      call square
      add esi, eax
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 1
      int 0x80
    square:
      imul eax, eax
      ret
  )");
}

TEST(CoreTransparency, ReturnAddressesAreApplicationAddresses) {
  // The program inspects its own return address on the stack; under the
  // runtime it must still see the *application* address (transparency).
  expectTransparent(R"(
    retaddr_expected: .word after_call
    main:
      call probe
    after_call:
      mov eax, 1
      int 0x80
    probe:
      mov eax, [esp]              ; our return address
      cmp eax, [retaddr_expected]
      jnz lie
      mov ebx, 0                  ; truthful: exit code 0
      ret
    lie:
      mov ebx, 1
      ret
  )");
}

TEST(CoreTransparency, IndirectBranchesAndRecursion) {
  expectTransparent(R"(
    table: .word op_add op_sub op_mul
    main:
      mov esi, 0        ; acc
      mov edi, 0        ; i
    loop:
      mov eax, edi
      cdq
      mov ecx, 3
      idiv ecx          ; edx = i % 3
      mov eax, edi
      call [table+edx*4]
      inc edi
      cmp edi, 50
      jnz loop
      call fib_enter
      mov ebx, esi
      mov eax, 1
      int 0x80
    op_add:
      add esi, eax
      ret
    op_sub:
      sub esi, eax
      ret
    op_mul:
      lea esi, [esi+eax*2]
      ret
    fib_enter:
      mov eax, 12
      call fib
      add esi, eax
      ret
    fib:
      cmp eax, 2
      jl fib_base
      push eax
      sub eax, 1
      call fib
      pop ecx           ; n
      push eax          ; fib(n-1)
      mov eax, ecx
      sub eax, 2
      call fib
      pop ecx           ; fib(n-1)
      add eax, ecx
      ret
    fib_base:
      ret
  )");
}

TEST(CoreTransparency, SyscallsInsideHotLoops) {
  expectTransparent(R"(
    main:
      mov esi, 5
    loop:
      mov ebx, esi
      mov eax, 2
      int 0x80
      dec esi
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
}

TEST(CoreTransparency, FloatingPointKernel) {
  expectTransparent(R"(
    vec: .f64 1.0 2.0 3.0 4.0 5.0 6.0 7.0 8.0
    main:
      mov ecx, 0
      mov eax, 8
      cvtsi2sd xmm1, eax  ; 8.0
      xor eax, eax
      cvtsi2sd xmm0, eax  ; 0.0
    loop:
      movsd xmm2, [vec+ecx*8]
      mulsd xmm2, xmm1
      addsd xmm0, xmm2
      inc ecx
      cmp ecx, 8
      jnz loop
      cvttsd2si ebx, xmm0 ; 8*(1+..+8) = 288
      mov eax, 1
      int 0x80
  )");
}

//===----------------------------------------------------------------------===//
// Runtime mechanics
//===----------------------------------------------------------------------===//

Program hotLoopProgram(int Iters) {
  return assembleOrDie(R"(
    main:
      mov ecx, )" + std::to_string(Iters) + R"(
      mov eax, 0
    loop:
      add eax, ecx
      dec ecx
      jnz loop
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
}

TEST(CoreMechanics, LinkingEliminatesContextSwitches) {
  Program P = hotLoopProgram(10000);
  RuntimeRun NoLink = runUnderRio(P, RuntimeConfig::bbCacheOnly());
  RuntimeRun Linked = runUnderRio(P, RuntimeConfig::linkDirect());
  // Without links, every loop iteration context-switches; with links the
  // loop body links to itself and switches all but vanish.
  EXPECT_GE(NoLink.Stats.get("context_switches"), 10000u);
  EXPECT_LT(Linked.Stats.get("context_switches"), 100u);
  EXPECT_GT(NoLink.Result.Cycles, Linked.Result.Cycles * 3);
}

TEST(CoreMechanics, IblAvoidsContextSwitchesForIndirects) {
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 5000
    loop:
      call callee
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 1
      int 0x80
    callee:
      inc esi
      ret
  )");
  RuntimeConfig NoIbl = RuntimeConfig::linkDirect();
  RuntimeConfig WithIbl = RuntimeConfig::linkIndirect();
  RuntimeRun A = runUnderRio(P, NoIbl);
  RuntimeRun B = runUnderRio(P, WithIbl);
  EXPECT_GT(A.Stats.get("context_switches"), 5000u);
  EXPECT_GT(B.Stats.get("ibl_hits"), 4000u);
  EXPECT_LT(B.Stats.get("context_switches"), 1000u);
  EXPECT_GT(A.Result.Cycles, B.Result.Cycles);
}

TEST(CoreMechanics, TracesAreBuiltForHotCode) {
  Program P = hotLoopProgram(20000);
  RuntimeRun R = runUnderRio(P, RuntimeConfig::full());
  EXPECT_GE(R.Stats.get("traces_built"), 1u);
  EXPECT_EQ(R.Result.ExitCode, int(20000u * 20001u / 2u));
}

TEST(CoreMechanics, TracesImprovePerformanceOnCallHeavyCode) {
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 30000
    loop:
      mov eax, ecx
      call work
      add esi, eax
      dec ecx
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    work:
      and eax, 15
      add eax, 3
      ret
  )");
  RuntimeRun NoTraces = runUnderRio(P, RuntimeConfig::linkIndirect());
  RuntimeRun Traces = runUnderRio(P, RuntimeConfig::full());
  EXPECT_EQ(NoTraces.Result.ExitCode, Traces.Result.ExitCode);
  EXPECT_GE(Traces.Stats.get("traces_built"), 1u);
  EXPECT_GE(Traces.Stats.get("indirect_branches_inlined"), 1u);
  EXPECT_LT(Traces.Result.Cycles, NoTraces.Result.Cycles);
}

TEST(CoreMechanics, Table1LadderOrdering) {
  // The cumulative feature ladder of Table 1: each rung must be faster.
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 4000
    loop:
      mov eax, ecx
      call work
      add esi, eax
      mov eax, esi
      and eax, 3
      cmp eax, 2
      jnz skip
      add esi, 5
    skip:
      dec ecx
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    work:
      and eax, 31
      add eax, 7
      ret
  )");
  uint64_t Emulate = runUnderRio(P, RuntimeConfig::emulate()).Result.Cycles;
  uint64_t BbCache = runUnderRio(P, RuntimeConfig::bbCacheOnly()).Result.Cycles;
  uint64_t Direct = runUnderRio(P, RuntimeConfig::linkDirect()).Result.Cycles;
  uint64_t Indirect =
      runUnderRio(P, RuntimeConfig::linkIndirect()).Result.Cycles;
  uint64_t Full = runUnderRio(P, RuntimeConfig::full()).Result.Cycles;
  EXPECT_GT(Emulate, BbCache);
  EXPECT_GT(BbCache, Direct);
  EXPECT_GT(Direct, Indirect);
  EXPECT_GT(Indirect, Full);
}

TEST(CoreMechanics, FragmentTableGrowsOncePerBlock) {
  Program P = hotLoopProgram(500);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited);
  // main prologue, loop body, epilogue: 3 blocks (give or take block-cap
  // splits), each built exactly once.
  EXPECT_EQ(RT.stats().get("basic_blocks_built"), RT.numFragments());
  EXPECT_LE(RT.numFragments(), 6u);
}

//===----------------------------------------------------------------------===//
// Client hooks
//===----------------------------------------------------------------------===//

class CountingClient : public Client {
public:
  int Inits = 0, Exits = 0, Bbs = 0, Traces = 0, Deletes = 0;
  void onInit(Runtime &) override { ++Inits; }
  void onExit(Runtime &) override { ++Exits; }
  void onBasicBlock(Runtime &, AppPc, InstrList &) override { ++Bbs; }
  void onTrace(Runtime &, AppPc, InstrList &) override { ++Traces; }
  void onFragmentDeleted(Runtime &, AppPc) override { ++Deletes; }
};

TEST(CoreClient, HooksFire) {
  Program P = hotLoopProgram(20000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  CountingClient C;
  Runtime RT(M, RuntimeConfig::full(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(C.Inits, 1);
  EXPECT_EQ(C.Exits, 1);
  EXPECT_GE(C.Bbs, 3);
  EXPECT_GE(C.Traces, 1);
  EXPECT_GE(C.Deletes, 1); // the head bb replaced by its trace
}

/// A client that inserts a clean call counting executions of one block.
class CleanCallClient : public Client {
public:
  uint64_t Executions = 0;
  void onBasicBlock(Runtime &RT, AppPc, InstrList &Block) override {
    uint32_t Id = RT.registerCleanCall(
        [this](CleanCallContext &) { ++Executions; });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    ASSERT_NE(Call, nullptr);
    Block.prepend(Call);
  }
};

TEST(CoreClient, CleanCallsExecute) {
  Program P = hotLoopProgram(1000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  CleanCallClient C;
  RuntimeConfig Config = RuntimeConfig::linkDirect(); // no traces: bbs only
  Runtime RT(M, Config, &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  // Loop body executes 1000 times plus prologue/epilogue once each.
  EXPECT_GE(C.Executions, 1000u);
  EXPECT_LE(C.Executions, 1010u);
}

//===----------------------------------------------------------------------===//
// Adaptive replacement (paper Section 3.4)
//===----------------------------------------------------------------------===//

TEST(CoreAdaptive, DecodeAndReplaceFragmentRoundTrip) {
  Program P = hotLoopProgram(2000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());

  // Prime the cache by running; then decode a fragment, re-install it
  // unchanged, and run again: behaviour must be preserved.
  RunResult First = RT.run();
  ASSERT_EQ(First.Status, RunStatus::Exited);

  // Find some fragment tag.
  AppPc Tag = P.symbol("loop");
  ASSERT_NE(RT.lookupFragment(Tag), nullptr);
  Arena A;
  InstrList *IL = RT.decodeFragment(A, Tag);
  ASSERT_NE(IL, nullptr);
  EXPECT_GT(IL->size(), 0u);
  EXPECT_TRUE(RT.replaceFragment(Tag, *IL));
  EXPECT_EQ(RT.stats().get("fragments_replaced"), 1u);
}

/// A client that, on the loop block's first execution, rewrites the block
/// (via decode/replace) to count subsequent executions in a scratch slot —
/// the paper's "a trace can generate a new version of itself" scenario in
/// miniature.
class SelfRewritingClient : public Client {
public:
  AppPc LoopTag = 0;
  bool Rewritten = false;
  Arena RewriteArena;

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Tag != LoopTag || Rewritten)
      return;
    uint32_t Id = RT.registerCleanCall([this, Tag](CleanCallContext &Ctx) {
      if (Rewritten)
        return;
      Rewritten = true;
      InstrList *IL = Ctx.RT.decodeFragment(RewriteArena, Tag);
      ASSERT_NE(IL, nullptr);
      uint32_t Slot = Ctx.RT.slots().ScratchSlots;
      Instr *Inc = Instr::createSynth(RewriteArena, OP_inc,
                                      {Operand::memAbs(Slot, 4)});
      ASSERT_NE(Inc, nullptr);
      IL->prepend(Inc);
      ASSERT_TRUE(Ctx.RT.replaceFragment(Tag, *IL));
    });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    Block.prepend(Call);
  }
};

TEST(CoreAdaptive, ReplaceChangesExecutedCode) {
  Program P = hotLoopProgram(777);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  SelfRewritingClient C;
  C.LoopTag = P.symbol("loop");
  ASSERT_NE(C.LoopTag, 0u);
  Runtime RT(M, RuntimeConfig::linkDirect(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, int(777u * 778u / 2u)); // behaviour preserved
  // The replacement carries the inc: it counts the remaining executions.
  // (The inc counts all executions after the rewrite, i.e. 777 minus the
  // executions of the old fragment; the clean call fires on the first.)
  uint32_t Count = 0;
  M.mem().read32(RT.slots().ScratchSlots, Count);
  EXPECT_GT(Count, 700u);
  EXPECT_LE(Count, 777u);
  EXPECT_EQ(RT.stats().get("fragments_replaced"), 1u);
}

//===----------------------------------------------------------------------===//
// Custom traces (paper Section 3.5)
//===----------------------------------------------------------------------===//

class MarkEverythingHotClient : public Client {
public:
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &) override {
    RT.markTraceHead(Tag);
  }
};

TEST(CoreCustomTraces, ClientMarkedHeadsProduceTraces) {
  Program P = hotLoopProgram(20000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  MarkEverythingHotClient C;
  Runtime RT(M, RuntimeConfig::full(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_GE(RT.stats().get("traces_built"), 1u);
}

class EndAfterOneBlockClient : public Client {
public:
  EndTrace onEndTrace(Runtime &, AppPc, AppPc) override {
    return EndTrace::End;
  }
};

TEST(CoreCustomTraces, EndTraceHookRespected) {
  Program P = hotLoopProgram(20000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  EndAfterOneBlockClient C;
  Runtime RT(M, RuntimeConfig::full(), &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  // Every trace ends after its head block.
  uint64_t Traces = RT.stats().get("traces_built");
  uint64_t Blocks = RT.stats().get("trace_blocks_total");
  ASSERT_GE(Traces, 1u);
  EXPECT_EQ(Blocks, Traces);
}

} // namespace

namespace {

TEST(CoreCacheMgmt, BoundedCacheFlushesAndStaysCorrect) {
  // A machine with a tiny runtime region forces cache capacity management;
  // execution must stay correct across it (fragments rebuild on demand).
  // The program is a long chain of distinct blocks, walked twice, plus a
  // hot loop — enough code volume to overflow a ~14KB block cache.
  std::string Src = R"(
    main:
      mov esi, 0
      mov edi, 2
    chain:
      jmp b0
  )";
  for (int I = 0; I != 400; ++I) {
    Src += "b" + std::to_string(I) + ":\n";
    Src += "  add esi, " + std::to_string((I * 2654435761u >> 8) & 0xFFFF) +
           "\n";
    Src += "  and esi, 0xFFFFFF\n";
    Src += "  jmp b" + std::to_string(I + 1) + "\n";
  }
  Src += R"(b400:
      dec edi
      jnz chain
      mov ecx, 500
    loop:
      add esi, ecx
      and esi, 0xFFFFFF
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  Program P = assembleOrDie(Src);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  MachineConfig MC;
  MC.RuntimeRegionSize = 36 * 1024; // slots + two tiny caches
  Machine M(MC);
  ASSERT_TRUE(loadProgram(M, P));
  CountingClient C;
  RuntimeConfig Cfg = RuntimeConfig::full();
  Cfg.BbCacheSize = 10 * 1024; // the chain needs ~13KB of block fragments
  Runtime RT(M, Cfg, &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  // A full cache makes room by evicting fragments one at a time.
  EXPECT_GE(RT.stats().get("cache_evictions"), 1u);
  // The client was told about every deleted fragment.
  EXPECT_GE(uint64_t(C.Deletes), RT.stats().get("cache_evictions"));
}

TEST(CoreCacheMgmt, ExplicitFlushRebuildsOnDemand) {
  Program P = hotLoopProgram(2000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  // Run a slice, flush everything, then finish: behaviour preserved.
  RunResult Part = RT.runFor(3000);
  ASSERT_TRUE(Part.QuantumExpired);
  RT.flushCaches();
  EXPECT_EQ(RT.lookupFragment(P.symbol("loop")), nullptr);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, int(2000u * 2001u / 2u));
  EXPECT_GE(RT.stats().get("cache_flushes"), 1u);
}

} // namespace

namespace {

TEST(CoreLinking, PatchBytesAreExactRel32) {
  // Verify linking at the byte level: the exit CTI's last four bytes hold
  // the rel32 to the stub when unlinked and to the target fragment when
  // linked.
  Program P = hotLoopProgram(200);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::linkDirect());
  ASSERT_EQ(RT.run().Status, RunStatus::Exited);

  Fragment *Loop = RT.lookupFragment(P.symbol("loop"));
  ASSERT_NE(Loop, nullptr);
  // Find the linked self-exit.
  const FragmentExit *Linked = nullptr;
  for (const FragmentExit &E : Loop->Exits)
    if (E.Linked && E.LinkedTo == Loop)
      Linked = &E;
  ASSERT_NE(Linked, nullptr) << "loop fragment should self-link";

  uint32_t Rel = 0;
  ASSERT_TRUE(
      M.mem().read32(Linked->ctiAddr(*Loop) + Linked->CtiLen - 4, Rel));
  EXPECT_EQ(Linked->ctiAddr(*Loop) + Linked->CtiLen + Rel, Loop->CacheAddr)
      << "linked rel32 must land on the target fragment entry";

  // Incoming-links bookkeeping matches.
  bool Found = false;
  for (uint32_t Id : Loop->IncomingLinks)
    Found = Found || Id == Linked->ExitId;
  EXPECT_TRUE(Found);
}

TEST(CoreAdaptive, DecodeFragmentBindsInternalLabels) {
  // A trace with an inlined indirect branch contains internal branches
  // (jecxz to its hit label). decodeFragment must surface them as label
  // operands, and the list must re-install cleanly.
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 20000
    loop:
      call callee
      add esi, eax
      and esi, 0xFFFFFF
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 1
      int 0x80
    callee:
      mov eax, 3
      ret
  )");
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  ASSERT_EQ(RT.run().Status, RunStatus::Exited);

  // The loop trace inlines the callee's ret: find it.
  Fragment *Trace = RT.lookupFragment(P.symbol("loop"));
  ASSERT_NE(Trace, nullptr);
  ASSERT_TRUE(Trace->isTrace());

  Arena A;
  InstrList *IL = RT.decodeFragment(A, Trace->Tag);
  ASSERT_NE(IL, nullptr);
  unsigned Labels = 0, LabelTargets = 0, Exits = 0;
  for (Instr &I : *IL) {
    if (I.isLabel()) {
      ++Labels;
      continue;
    }
    if (I.isCti() && !I.isIndirectCti()) {
      if (I.getSrc(0).isInstr())
        ++LabelTargets;
      else
        ++Exits;
    }
  }
  EXPECT_GE(Labels, 1u) << "inlined check's hit label must decode";
  EXPECT_GE(LabelTargets, 1u) << "jecxz must bind to its label";
  EXPECT_GE(Exits, 1u);

  // Reinstall unchanged: behaviour must be preserved on a fresh run of the
  // same program in a new machine (the replaced fragment is structural).
  EXPECT_TRUE(RT.replaceFragment(Trace->Tag, *IL));
}

TEST(CoreThreads, RunForHonorsQuanta) {
  Program P = hotLoopProgram(100000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  uint64_t Before = M.instructionsExecuted();
  RunResult R = RT.runFor(1000);
  EXPECT_TRUE(R.QuantumExpired);
  uint64_t Ran = M.instructionsExecuted() - Before;
  EXPECT_GE(Ran, 900u);
  EXPECT_LE(Ran, 1400u); // may overshoot by a basic block or so
  // Resume to completion.
  R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(R.ExitCode, int((100000ull * 100001ull / 2) & 0x7FFFFFFF) -
                            int(((100000ull * 100001ull / 2) & 0x80000000)));
}

} // namespace

namespace {

TEST(CoreFaults, CacheFaultsReportApplicationContext) {
  // A memory fault inside hot (cached) code must be reported in terms of
  // the application code it came from, not a bare cache address.
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 300
    warm:
      add eax, ecx
      dec ecx
      jnz warm
      mov ebx, [0xFFFFFF0]   ; out-of-range load
      hlt
  )");
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_NE(R.FaultReason.find("application address"), std::string::npos)
      << R.FaultReason;
}

//===----------------------------------------------------------------------===//
// Exit stub templates
//===----------------------------------------------------------------------===//

/// The encoder's bytes for \p Op with \p Ops placed at \p Pc.
std::vector<uint8_t> encoded(Opcode Op, std::initializer_list<Operand> Ops,
                             uint32_t Pc) {
  Arena A;
  uint8_t Buf[MaxInstrLength];
  int Len = Instr::createSynth(A, Op, Ops)->encode(Pc, Buf, false);
  EXPECT_GT(Len, 0);
  return std::vector<uint8_t>(Buf, Buf + std::max(Len, 0));
}

TEST(ExitStubTemplates, MatchTheEncoder) {
  // Dispatcher entries at both ends of the runtime region, with stubs
  // placed above and below them.
  MachineConfig MC;
  const uint32_t Lo = MC.AppRegionSize;
  const uint32_t Hi = MC.AppRegionSize + MC.RuntimeRegionSize - 0x100;
  for (uint32_t Entry : {Lo, Hi}) {
    RuntimeSlots Slots{};
    Slots.DispatcherEntry = Entry;
    Slots.ExitIdSlot = Entry + 0x10;
    Slots.IbTargetSlot = Entry + 0x14;
    ExitStubs Stubs(Slots);
    for (uint32_t Pc : {Entry + 0x1000, Entry - 0x2345, Lo + 0x40, Hi + 0x80}) {
      for (uint32_t ExitId : {0u, 1u, 0x00ABCDEFu}) {
        std::vector<uint8_t> Want = encoded(
            OP_mov,
            {Operand::memAbs(Slots.ExitIdSlot, 4),
             Operand::imm(int64_t(ExitId), 4)},
            Pc);
        std::vector<uint8_t> Jmp = encoded(
            OP_jmp, {Operand::pc(Entry)}, Pc + ExitStubs::MovLen);
        Want.insert(Want.end(), Jmp.begin(), Jmp.end());
        std::vector<uint8_t> Got(ExitStubs::ExitLen);
        Stubs.writeExit(Got.data(), Pc, ExitId);
        EXPECT_EQ(Got, Want) << std::hex << Entry << " " << Pc << " " << ExitId;
      }
    }
    for (AppPc Tag : {0x1000u, 0x00400123u, 0xFFFFFFF0u}) {
      std::vector<uint8_t> Want = encoded(
          OP_mov,
          {Operand::memAbs(Slots.IbTargetSlot, 4),
           Operand::imm(int64_t(Tag), 4)},
          0);
      std::vector<uint8_t> Jmp =
          encoded(OP_jmp_ind, {Operand::memAbs(Slots.IbTargetSlot, 4)}, 0);
      Want.insert(Want.end(), Jmp.begin(), Jmp.end());
      std::vector<uint8_t> Got(ExitStubs::ArmLen);
      Stubs.writeArm(Got.data(), Tag);
      EXPECT_EQ(Got, Want) << std::hex << Entry << " " << Tag;
    }
  }
}

} // namespace
