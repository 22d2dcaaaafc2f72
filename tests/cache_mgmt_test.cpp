//===- tests/cache_mgmt_test.cpp - Code-cache management tests ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the CacheManager subsystem: bounded caches with FIFO
/// eviction, deferred slot reclamation (the guard-pc rule, stale-exit
/// fallback), consistency invalidation of self-modifying code, and
/// dr_flush_region — including calling it from a clean call that is
/// logically inside the flushed fragment.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "core/Runtime.h"
#include "harness/Experiment.h"
#include "workloads/Workloads.h"

using namespace rio;
using namespace rio::test;

namespace {

/// A long chain of one-use blocks followed by a hot loop, repeated \p Laps
/// times: enough distinct fragments to overflow a small bounded block
/// cache, with re-use so retention policy matters.
Program chainProgram(int Blocks, int Laps) {
  std::string Src = R"(
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Laps) + R"(
    chain:
      jmp b0
  )";
  for (int I = 0; I != Blocks; ++I) {
    Src += "b" + std::to_string(I) + ":\n";
    Src += "  add esi, " + std::to_string((I * 2654435761u >> 8) & 0xFFFF) +
           "\n";
    Src += "  and esi, 0xFFFFFF\n";
    Src += "  jmp b" + std::to_string(I + 1) + "\n";
  }
  Src += "b" + std::to_string(Blocks) + R"(:
      dec edi
      jnz chain
      mov ecx, 500
    hot:
      add esi, ecx
      and esi, 0xFFFFFF
      dec ecx
      jnz hot
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  return assembleOrDie(Src);
}

Program hotLoopProgram(int Iters) {
  return assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, )" + std::to_string(Iters) + R"(
    loop:
      add esi, ecx
      and esi, 0x7FFFFFFF
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 1
      int 0x80
  )");
}

class CountingClient : public Client {
public:
  int Deletes = 0;
  void onFragmentDeleted(Runtime &, AppPc) override { ++Deletes; }
};

//===----------------------------------------------------------------------===//
// Eviction accounting
//===----------------------------------------------------------------------===//

TEST(CacheMgmt, EvictionNotifiesClientExactlyOncePerFragment) {
  Program P = chainProgram(400, 2);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  CountingClient C;
  // No traces: every deletion in this configuration is a FIFO eviction,
  // so the client callback count must equal both counters exactly.
  RuntimeConfig Cfg = RuntimeConfig::linkDirect();
  Cfg.BbCacheSize = 8 * 1024; // the chain needs ~13KB of block fragments
  Runtime RT(M, Cfg, &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);

  uint64_t Evictions = RT.stats().get("cache_evictions");
  EXPECT_GE(Evictions, 1u);
  EXPECT_EQ(uint64_t(C.Deletes), Evictions);
  EXPECT_EQ(RT.stats().get("fragments_deleted"), Evictions);
}

//===----------------------------------------------------------------------===//
// Deferred reclamation: the guard-pc rule
//===----------------------------------------------------------------------===//

/// A 16-byte block fragment (12 body + 4 stub bytes) at \p Addr.
Fragment slotAt(uint32_t Addr) {
  Fragment F;
  F.FragKind = Fragment::Kind::BasicBlock;
  F.CacheAddr = Addr;
  F.CodeSize = 12;
  F.StubsSize = 4;
  return F;
}

TEST(CacheMgmt, GuardPcHoldsRetiredSlotThenReleasesIt) {
  constexpr uint32_t Base = 0x10000;
  Machine M;
  StatisticSet Stats;
  CacheManager CM(M, Stats, /*WatchWrites=*/false);
  CM.configureCache(Fragment::Kind::BasicBlock, Base, Base + 64);
  CM.configureCache(Fragment::Kind::Trace, Base + 64, Base + 128);

  ASSERT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base);
  ASSERT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base + 16);
  Fragment A = slotAt(Base), B = slotAt(Base + 16);
  CM.registerFragment(&A);
  CM.registerFragment(&B);
  CM.retireFragment(&A);
  EXPECT_EQ(CM.pendingReclaimBytes(Fragment::Kind::BasicBlock), 16u);

  // A guard pc in the retired slot (here in its stub bytes) keeps it
  // pending: first fit skips it, even when it is the only 16-byte hole.
  const std::vector<uint32_t> Guard = {Base + 13};
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16, Guard), Base + 32);
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16, Guard), Base + 48);
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16, Guard), 0u);
  EXPECT_EQ(CM.pendingReclaimBytes(Fragment::Kind::BasicBlock), 16u);

  // A guard pc outside the slot (in the live neighbour) does not hold it:
  // the next allocation reclaims the slot and reuses it.
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16, {Base + 16}), Base);
  EXPECT_EQ(CM.pendingReclaimBytes(Fragment::Kind::BasicBlock), 0u);
}

TEST(CacheMgmt, UnguardedRetiredSlotIsReusedByNextAllocation) {
  constexpr uint32_t Base = 0x10000;
  Machine M;
  StatisticSet Stats;
  CacheManager CM(M, Stats, /*WatchWrites=*/false);
  CM.configureCache(Fragment::Kind::BasicBlock, Base, Base + 64);
  CM.configureCache(Fragment::Kind::Trace, Base + 64, Base + 128);

  ASSERT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base);
  Fragment A = slotAt(Base);
  CM.registerFragment(&A);
  CM.retireFragment(&A);
  EXPECT_EQ(CM.liveFragments(Fragment::Kind::BasicBlock), 0u);
  EXPECT_EQ(CM.pendingReclaimBytes(Fragment::Kind::BasicBlock), 16u);

  // No guard pc anywhere: reclamation coalesces the slot with the free
  // tail, so first fit returns its address again.
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base);
  EXPECT_EQ(CM.pendingReclaimBytes(Fragment::Kind::BasicBlock), 0u);
  EXPECT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 48), Base + 16);
}

TEST(CacheMgmt, OversizedRequestEvictsNothing) {
  // No eviction can make room for a request larger than the whole cache:
  // allocateEvicting must fail at once, leaving every live fragment alone.
  constexpr uint32_t Base = 0x10000;
  Machine M;
  StatisticSet Stats;
  CacheManager CM(M, Stats, /*WatchWrites=*/false);
  CM.configureCache(Fragment::Kind::BasicBlock, Base, Base + 64);
  CM.configureCache(Fragment::Kind::Trace, Base + 64, Base + 128);

  ASSERT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base);
  ASSERT_EQ(CM.allocate(Fragment::Kind::BasicBlock, 16), Base + 16);
  Fragment A = slotAt(Base), B = slotAt(Base + 16);
  CM.registerFragment(&A);
  CM.registerFragment(&B);

  int Evicted = 0;
  EXPECT_EQ(CM.allocateEvicting(Fragment::Kind::BasicBlock, 65, {},
                                [&](Fragment *Victim) {
                                  ++Evicted;
                                  CM.retireFragment(Victim);
                                }),
            0u);
  EXPECT_EQ(Evicted, 0);
  EXPECT_EQ(CM.liveFragments(Fragment::Kind::BasicBlock), 2u);
}

//===----------------------------------------------------------------------===//
// Deferred reclamation: stale-exit fallback
//===----------------------------------------------------------------------===//

TEST(CacheMgmt, StaleExitFallbackAfterFlushWhileSuspended) {
  // Suspend mid-run (the thread sits logically inside a cache fragment),
  // flush the region holding the loop, then resume: the retired
  // fragment's bytes must stay in place (pending, guarded by the resume
  // pc) and its unlinked exits must fall back to the dispatcher, which
  // re-translates and finishes with the right answer.
  Program P = hotLoopProgram(50000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult Part = RT.runFor(3000);
  ASSERT_TRUE(Part.QuantumExpired);

  AppPc Loop = P.symbol("loop");
  ASSERT_NE(RT.lookupFragment(Loop), nullptr);
  RT.flushRegion(0, M.runtimeBase()); // every translated app byte
  EXPECT_EQ(RT.lookupFragment(Loop), nullptr);
  EXPECT_GE(RT.stats().get("region_flushed_fragments"), 1u);

  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, int((50000ull * 50001ull / 2) & 0x7FFFFFFF));
}

//===----------------------------------------------------------------------===//
// Consistency: self-modifying code
//===----------------------------------------------------------------------===//

TEST(CacheMgmt, SelfModifyingCodeRetranslates) {
  // The smc workload overwrites a function it then calls; executing stale
  // translated code changes the printed checksum. The write monitor must
  // invalidate the overlapping fragments — and only those.
  const Workload *W = findWorkload("smc");
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);

  uint64_t Writes = RT.stats().get("smc_code_writes");
  uint64_t Invalidations = RT.stats().get("smc_invalidations");
  uint64_t Built = RT.stats().get("basic_blocks_built") +
                   RT.stats().get("traces_built");
  EXPECT_GE(Writes, 1u);
  EXPECT_GE(Invalidations, 1u);
  // Precision: each write kills only the fragments overlapping it, never
  // the whole cache.
  EXPECT_LT(Invalidations, Built);
}

TEST(CacheMgmt, SmcWriteToDecodeCacheAliasedPc) {
  // Two functions exactly Machine::DecodeCacheLines bytes apart share a
  // direct-mapped decode-cache line (but live on different write-watch
  // lines). After both have executed — so the shared line has been filled
  // by each in turn — the program overwrites the first function's
  // immediate and calls both again. The stale decode must not survive:
  // natively via the line-generation invalidation, and under the runtime
  // via fragment invalidation of the aliased pc only.
  //
  //   warm:  4 * (7 + 100)  = 428
  //   patch f1 -> returns 9
  //   again: 4 * (9 + 100)  = 436  => checksum 864
  std::string Pad =
      std::to_string(Machine::DecodeCacheLines - 8); // f1 body is 8 bytes
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 4
    warm:
      call f1
      add esi, eax
      call f2
      add esi, eax
      dec ecx
      jnz warm
      mov eax, [tmpl]
      mov edx, [tmpl+4]
      mov [f1], eax
      mov [f1+4], edx
      mov ecx, 4
    again:
      call f1
      add esi, eax
      call f2
      add esi, eax
      dec ecx
      jnz again
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    f1:
      mov eax, 7
      ret
      nop
      nop
    .space )" + Pad + R"(
    f2:
      mov eax, 100
      ret
    tmpl:
      mov eax, 9
      ret
      nop
      nop
  )");
  ASSERT_EQ(P.symbol("f2") - P.symbol("f1"), Machine::DecodeCacheLines);

  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited) << Native.FaultReason;
  EXPECT_EQ(Native.Output, "864\n"); // stale decode would print 856

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(RT.stats().get("smc_invalidations"), 1u);
}

//===----------------------------------------------------------------------===//
// dr_flush_region from a clean call
//===----------------------------------------------------------------------===//

/// Inserts a clean call at the top of the loop block that flushes the
/// region containing that very block for the first few executions — the
/// caller is logically inside the fragment it is flushing, so deletion
/// must defer byte reclamation until control has left it.
class SelfFlushClient : public Client {
public:
  AppPc LoopTag = 0;
  int Flushes = 0;

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Tag != LoopTag)
      return;
    uint32_t Id = RT.registerCleanCall([this](CleanCallContext &Ctx) {
      if (Flushes >= 3)
        return;
      ++Flushes;
      dr_flush_region(&Ctx.RT, LoopTag, 1);
    });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    ASSERT_NE(Call, nullptr);
    Block.prepend(Call);
  }
};

TEST(CacheMgmt, FlushRegionFromCleanCallInsideFlushedFragment) {
  Program P = hotLoopProgram(200);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  SelfFlushClient C;
  C.LoopTag = P.symbol("loop");
  RuntimeConfig Cfg = RuntimeConfig::linkDirect(); // keep the block a bb
  Runtime RT(M, Cfg, &C);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, int(200u * 201u / 2u));
  EXPECT_EQ(C.Flushes, 3);
  EXPECT_GE(RT.stats().get("region_flushes"), 3u);
  EXPECT_GE(RT.stats().get("region_flushed_fragments"), 3u);
}

//===----------------------------------------------------------------------===//
// Per-cache pressure isolation
//===----------------------------------------------------------------------===//

TEST(CacheMgmt, PressureInBlockCacheLeavesTraceCacheAlone) {
  // The chain overflows a small block cache while the hot loop lives as a
  // trace. Space pressure in the block cache must evict only blocks: the
  // trace survives to the end of the run.
  Program P = chainProgram(400, 3);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RuntimeConfig Cfg = RuntimeConfig::full();
  Cfg.BbCacheSize = 8 * 1024;
  Runtime RT(M, Cfg);
  RunResult R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(RT.stats().get("traces_built"), 1u);
  EXPECT_GE(RT.stats().get("cache_evictions"), 1u);
  Fragment *Hot = RT.lookupFragment(P.symbol("hot"));
  ASSERT_NE(Hot, nullptr);
  EXPECT_TRUE(Hot->isTrace());
}


//===----------------------------------------------------------------------===//
// Undersized caches never fault the guest
//===----------------------------------------------------------------------===//

TEST(CacheMgmt, UndersizedCachesStayTransparentUnderAllFour) {
  // With both caches at 1 or 2 KB, the four paper clients grow some traces
  // past the trace cache. Such a trace is abandoned, never a guest fault
  // ("code cache exhausted"): its blocks keep running from the block cache.
  std::vector<const Workload *> Ws;
  for (const Workload &W : allWorkloads())
    Ws.push_back(&W);
  for (const Workload &W : cacheWorkloads())
    Ws.push_back(&W);
  for (const Workload *W : Ws) {
    Program Prog = buildWorkload(*W, 1);
    Outcome Native = runNativeProgram(Prog);
    ASSERT_EQ(Native.Status, RunStatus::Exited) << W->Name;
    for (uint32_t Bytes : {1024u, 2048u, 4096u}) {
      RuntimeConfig Config = RuntimeConfig::full();
      Config.BbCacheSize = Config.TraceCacheSize = Bytes;
      Outcome Rio = runUnderRuntime(Prog, Config, ClientKind::AllFour);
      EXPECT_EQ(Rio.Status, RunStatus::Exited) << W->Name << " at " << Bytes;
      EXPECT_EQ(Rio.Output, Native.Output) << W->Name << " at " << Bytes;
      EXPECT_EQ(Rio.ExitCode, Native.ExitCode) << W->Name << " at " << Bytes;
    }
  }
}

} // namespace
