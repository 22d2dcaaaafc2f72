//===- tests/threads_test.cpp - Multi-threaded application tests ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-threaded applications under the runtime: thread-private code
/// caches (paper Section 2), per-thread client hooks (Table 3), and the
/// transparency invariant extended across threads.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "clients/Clients.h"
#include "core/ThreadedRunner.h"

#include <set>
#include <vector>

using namespace rio;
using namespace rio::test;

namespace {

/// A race-free multi-threaded program: main spawns N workers, each sums a
/// disjoint slice of an array into its own result slot and raises a done
/// flag; main spins until all flags are up, then prints the combined sum.
/// Deterministic result under ANY fair schedule.
Program workerProgram(int Workers, int Elems) {
  std::string S = R"(
    data:    .space 4096
    results: .space 32
    flags:   .space 32
    stacks:  .space 8192
  )";
  S += "main:\n";
  // Fill data with i & 255.
  S += R"(
      mov ecx, 0
    init:
      mov eax, ecx
      and eax, 255
      mov edx, ecx
      shl edx, 2
      mov [data+edx], eax
      inc ecx
      cmp ecx, 1024
      jnz init
  )";
  for (int W = 0; W != Workers; ++W) {
    S += "  mov ebx, worker" + std::to_string(W) + "\n";
    S += "  mov ecx, stacks+" + std::to_string((W + 1) * 1024) + "\n";
    S += "  mov eax, 5\n  int 0x80\n"; // thread_create
  }
  // Spin-join on the flags.
  S += "join:\n";
  for (int W = 0; W != Workers; ++W) {
    S += "  mov eax, [flags+" + std::to_string(W * 4) + "]\n";
    S += "  test eax, eax\n  jz join\n";
  }
  // Combine and print.
  S += "  mov esi, 0\n";
  for (int W = 0; W != Workers; ++W)
    S += "  add esi, [results+" + std::to_string(W * 4) + "]\n";
  S += "  mov ebx, esi\n  mov eax, 2\n  int 0x80\n";
  S += "  mov ebx, 0\n  mov eax, 1\n  int 0x80\n";

  for (int W = 0; W != Workers; ++W) {
    std::string Id = std::to_string(W);
    int Lo = W * Elems;
    S += "worker" + Id + ":\n";
    S += "  mov esi, 0\n";
    S += "  mov ecx, " + std::to_string(Lo) + "\n";
    S += "wloop" + Id + ":\n";
    S += "  mov edx, ecx\n  shl edx, 2\n";
    S += "  add esi, [data+edx]\n";
    S += "  inc ecx\n";
    S += "  cmp ecx, " + std::to_string(Lo + Elems) + "\n";
    S += "  jnz wloop" + Id + "\n";
    S += "  mov [results+" + std::to_string(W * 4) + "], esi\n";
    S += "  mov eax, 1\n";
    S += "  mov [flags+" + std::to_string(W * 4) + "], eax\n";
    S += "  mov eax, 6\n  int 0x80\n"; // thread_exit
  }
  return assembleOrDie(S);
}

/// Expected sum for workerProgram(Workers, Elems).
int expectedSum(int Workers, int Elems) {
  int Sum = 0;
  for (int I = 0; I != Workers * Elems; ++I)
    Sum += I & 255;
  return Sum;
}

TEST(Threads, NativeThreadedExecutionWorks) {
  Program P = workerProgram(3, 200);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RunResult R = runThreadedNative(M);
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), std::to_string(expectedSum(3, 200)) + "\n");
  EXPECT_EQ(M.numThreads(), 4u);
}

TEST(Threads, RuntimeMatchesNativeOutput) {
  Program P = workerProgram(3, 200);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  ThreadedRunner Runner(M, RuntimeConfig::full());
  RunResult R = Runner.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(R.ExitCode, NR.ExitCode);
  EXPECT_EQ(M.output(), Native.output());
}

TEST(Threads, EveryConfigurationIsTransparent) {
  Program P = workerProgram(2, 150);
  std::string Expected = std::to_string(expectedSum(2, 150)) + "\n";
  const RuntimeConfig Configs[] = {
      RuntimeConfig::bbCacheOnly(), RuntimeConfig::linkDirect(),
      RuntimeConfig::linkIndirect(), RuntimeConfig::full()};
  for (const RuntimeConfig &Config : Configs) {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    ThreadedRunner Runner(M, Config);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(M.output(), Expected);
  }
}

TEST(Threads, CachesAreThreadPrivate) {
  // All three workers execute the *same* shared summing pattern... but
  // each worker body is distinct code here, so instead verify the sharper
  // claim: fragments live in disjoint per-thread cache regions and each
  // thread built its own.
  Program P = workerProgram(3, 200);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  ThreadedRunner Runner(M, RuntimeConfig::full());
  ASSERT_EQ(Runner.run().Status, RunStatus::Exited);
  ASSERT_EQ(Runner.threadsSeen(), 4u);

  uint32_t Slice = M.config().RuntimeRegionSize / Runner.maxThreads();
  for (unsigned Tid = 0; Tid != 4; ++Tid) {
    Runtime *RT = Runner.runtimeFor(Tid);
    ASSERT_NE(RT, nullptr);
    EXPECT_GE(RT->stats().get("basic_blocks_built"), 1u) << "thread " << Tid;
    uint32_t Lo = M.runtimeBase() + Tid * Slice;
    RT->forEachFragment([&](const Fragment &Frag) {
      EXPECT_GE(Frag.CacheAddr, Lo);
      EXPECT_LT(Frag.CacheAddr, Lo + Slice);
    });
  }
}

TEST(Threads, ClientThreadHooksFire) {
  class HookCounter : public Client {
  public:
    int Inits = 0, Exits = 0, ThreadInits = 0, ThreadExits = 0;
    void onInit(Runtime &) override { ++Inits; }
    void onExit(Runtime &) override { ++Exits; }
    void onThreadInit(Runtime &) override { ++ThreadInits; }
    void onThreadExit(Runtime &) override { ++ThreadExits; }
  };
  Program P = workerProgram(3, 100);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  HookCounter C;
  ThreadedRunner Runner(M, RuntimeConfig::full(), &C);
  ASSERT_EQ(Runner.run().Status, RunStatus::Exited);
  EXPECT_EQ(C.Inits, 1);
  EXPECT_EQ(C.Exits, 1);
  EXPECT_EQ(C.ThreadInits, 4);
  EXPECT_EQ(C.ThreadExits, 4);
}

TEST(Threads, OptimizationClientsWorkAcrossThreads) {
  Program P = workerProgram(3, 300);
  std::string Expected = std::to_string(expectedSum(3, 300)) + "\n";
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  CustomTracesClient C1;
  RlrClient C2;
  StrengthReduceClient C3;
  IBDispatchClient C4;
  MultiClient All({&C1, &C2, &C3, &C4});
  ThreadedRunner Runner(M, RuntimeConfig::full(), &All);
  RunResult R = Runner.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Expected);
}

TEST(Threads, DeterministicScheduling) {
  Program P = workerProgram(2, 128);
  auto Once = [&] {
    Machine M;
    loadProgram(M, P);
    ThreadedRunner Runner(M, RuntimeConfig::full());
    RunResult R = Runner.run();
    return std::pair(R.Cycles, M.output());
  };
  auto A = Once();
  auto B = Once();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
}

/// Like workerProgram, but every worker runs the *same* code path: a loop
/// that calls one shared function. Under thread-private caches each thread
/// duplicates shared_fn's fragments; under a shared cache they are built
/// once. This is the program shape behind the paper's Section 2 trade-off.
Program sharedFnProgram(int Workers, int Iters) {
  std::string S = R"(
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
    S += "  mov ecx, " + std::to_string(Iters) + "\n";
    S += "wloop" + Id + ":\n";
    S += "  mov eax, ecx\n";
    S += "  call shared_fn\n";
    S += "  add esi, eax\n  and esi, 0xFFFFFF\n";
    S += "  dec ecx\n  jnz wloop" + Id + "\n";
    S += "  mov [results+" + std::to_string(W * 4) + "], esi\n";
    S += "  mov eax, 1\n  mov [flags+" + std::to_string(W * 4) + "], eax\n";
    S += "  mov eax, 6\n  int 0x80\n"; // thread_exit
  }
  S += R"(
    shared_fn:
      imul eax, eax, 17
      and eax, 1023
      add eax, 3
      ret
  )";
  return assembleOrDie(S);
}

/// Sums a named counter across every distinct runtime the runner holds
/// (one in shared mode, one per thread in private mode).
uint64_t sumStat(ThreadedRunner &Runner, const char *Name) {
  uint64_t Sum = 0;
  std::set<Runtime *> Seen;
  for (unsigned Tid = 0; Tid != Runner.threadsSeen(); ++Tid)
    if (Runtime *RT = Runner.runtimeFor(Tid))
      if (Seen.insert(RT).second)
        Sum += RT->stats().get(Name);
  return Sum;
}

//===----------------------------------------------------------------------===//
// Shared-cache mode (paper Section 2's other side of the trade-off)
//===----------------------------------------------------------------------===//

TEST(Threads, SharedCacheMatchesNativeOutput) {
  for (Program P : {workerProgram(3, 200), sharedFnProgram(3, 500)}) {
    Machine Native;
    ASSERT_TRUE(loadProgram(Native, P));
    RunResult NR = runThreadedNative(Native);
    ASSERT_EQ(NR.Status, RunStatus::Exited) << NR.FaultReason;

    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = CacheSharing::Shared;
    ThreadedRunner Runner(M, Config);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(R.ExitCode, NR.ExitCode);
    EXPECT_EQ(M.output(), Native.output());
  }
}

TEST(Threads, SharedCacheEveryConfigurationIsTransparent) {
  Program P = workerProgram(2, 150);
  std::string Expected = std::to_string(expectedSum(2, 150)) + "\n";
  const RuntimeConfig Configs[] = {
      RuntimeConfig::bbCacheOnly(), RuntimeConfig::linkDirect(),
      RuntimeConfig::linkIndirect(), RuntimeConfig::full()};
  for (RuntimeConfig Config : Configs) {
    Config.Sharing = CacheSharing::Shared;
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    ThreadedRunner Runner(M, Config);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(M.output(), Expected);
  }
}

TEST(Threads, SharedCacheIsDeterministic) {
  Program P = workerProgram(2, 128);
  auto Once = [&] {
    Machine M;
    loadProgram(M, P);
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = CacheSharing::Shared;
    ThreadedRunner Runner(M, Config);
    RunResult R = Runner.run();
    return std::pair(R.Cycles, M.output());
  };
  auto A = Once();
  auto B = Once();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
}

TEST(Threads, SharedCacheUsesOneRuntime) {
  Program P = sharedFnProgram(3, 500);

  // Private: four runtimes, shared_fn duplicated in several of them.
  Machine MP;
  ASSERT_TRUE(loadProgram(MP, P));
  ThreadedRunner Private(MP, RuntimeConfig::full());
  ASSERT_EQ(Private.run().Status, RunStatus::Exited);
  AppPc FnTag = P.symbol("shared_fn");
  unsigned PrivateCopies = 0;
  uint64_t PrivateBlocks = 0;
  for (unsigned Tid = 0; Tid != Private.threadsSeen(); ++Tid) {
    Runtime *RT = Private.runtimeFor(Tid);
    ASSERT_NE(RT, nullptr);
    EXPECT_FALSE(dr_using_shared_cache(RT));
    if (RT->lookupFragment(FnTag))
      ++PrivateCopies;
    PrivateBlocks += RT->stats().get("basic_blocks_built");
  }
  EXPECT_GE(PrivateCopies, 3u) << "every worker should duplicate shared_fn";

  // Shared: one runtime serves every thread; shared_fn is built once, so
  // strictly fewer basic blocks are built in total.
  Machine MS;
  ASSERT_TRUE(loadProgram(MS, P));
  RuntimeConfig Config = RuntimeConfig::full();
  Config.Sharing = CacheSharing::Shared;
  ThreadedRunner Shared(MS, Config);
  ASSERT_EQ(Shared.run().Status, RunStatus::Exited);
  ASSERT_EQ(Shared.threadsSeen(), 4u);
  Runtime *RT0 = Shared.runtimeFor(0);
  ASSERT_NE(RT0, nullptr);
  EXPECT_TRUE(dr_using_shared_cache(RT0));
  for (unsigned Tid = 1; Tid != Shared.threadsSeen(); ++Tid)
    EXPECT_EQ(Shared.runtimeFor(Tid), RT0) << "thread " << Tid;
  EXPECT_EQ(RT0->numThreadContexts(), 4u);
  EXPECT_LT(RT0->stats().get("basic_blocks_built"), PrivateBlocks);
  EXPECT_GE(RT0->stats().get("thread_context_swaps"), 3u);
}

TEST(Threads, ConfigurableQuantumAndMaxThreads) {
  // Satellite: MaxThreads / quantum come from RuntimeConfig. A lower
  // thread limit widens the private slices; a smaller quantum forces more
  // shared-mode context swaps (each charged ThreadContextSwapCost).
  Program P = workerProgram(3, 200);
  std::string Expected = std::to_string(expectedSum(3, 200)) + "\n";

  RuntimeConfig Wide = RuntimeConfig::full();
  Wide.MaxThreads = 4;
  Machine MW;
  ASSERT_TRUE(loadProgram(MW, P));
  ThreadedRunner WideRunner(MW, Wide);
  EXPECT_EQ(WideRunner.maxThreads(), 4u);
  ASSERT_EQ(WideRunner.run().Status, RunStatus::Exited);
  EXPECT_EQ(MW.output(), Expected);
  uint32_t Slice = MW.config().RuntimeRegionSize / 4;
  for (unsigned Tid = 0; Tid != WideRunner.threadsSeen(); ++Tid) {
    uint32_t Lo = MW.runtimeBase() + Tid * Slice;
    WideRunner.runtimeFor(Tid)->forEachFragment([&](const Fragment &Frag) {
      EXPECT_GE(Frag.CacheAddr, Lo);
      EXPECT_LT(Frag.CacheAddr, Lo + Slice);
    });
  }

  uint64_t Swaps[2];
  int Idx = 0;
  for (uint64_t Quantum : {5000u, 500u}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = CacheSharing::Shared;
    Config.ThreadQuantum = Quantum;
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    ThreadedRunner Runner(M, Config);
    ASSERT_EQ(Runner.run().Status, RunStatus::Exited);
    EXPECT_EQ(M.output(), Expected);
    Swaps[Idx++] = Runner.runtimeFor(0)->stats().get("thread_context_swaps");
  }
  EXPECT_GT(Swaps[1], Swaps[0])
      << "a 10x smaller quantum must swap contexts more often";
}

TEST(Threads, ThreadIdQueryTracksActiveThread) {
  // dr_get_thread_id from a clean call must report the thread actually
  // executing, in both sharing modes (in shared mode that is whichever
  // context is currently banked in).
  class TidRecorder : public Client {
  public:
    AppPc HookTag = 0;
    std::set<unsigned> SeenTids;
    void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
      if (Tag != HookTag)
        return;
      uint32_t Id = RT.registerCleanCall([this](CleanCallContext &Ctx) {
        SeenTids.insert(dr_get_thread_id(&Ctx.RT));
      });
      Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                       {Operand::imm(int64_t(Id), 4)});
      ASSERT_NE(Call, nullptr);
      Block.prepend(Call);
    }
  };
  Program P = sharedFnProgram(3, 50);
  for (CacheSharing Sharing :
       {CacheSharing::ThreadPrivate, CacheSharing::Shared}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = Sharing;
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    TidRecorder C;
    C.HookTag = P.symbol("shared_fn");
    ThreadedRunner Runner(M, Config, &C);
    ASSERT_EQ(Runner.run().Status, RunStatus::Exited);
    EXPECT_EQ(C.SeenTids, (std::set<unsigned>{1, 2, 3}))
        << "mode " << int(Sharing);
  }
}

//===----------------------------------------------------------------------===//
// Deletion safety under suspension (satellite: guard-pc reclamation)
//===----------------------------------------------------------------------===//

/// From worker 0's loop body, flushes the whole worker code region a few
/// times. Under quantum scheduling the *other* workers are suspended
/// mid-fragment when the flush lands, and they exit (thread_exit) while
/// the flushed slots are still pending — reclamation must defer until
/// every suspended thread's guard pc has left the doomed bytes.
class CrossThreadFlushClient : public Client {
public:
  AppPc HookTag = 0;
  AppPc FlushStart = 0;
  int Flushes = 0;

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Tag != HookTag)
      return;
    uint32_t Id = RT.registerCleanCall([this](CleanCallContext &Ctx) {
      if (Flushes >= 3)
        return;
      ++Flushes;
      dr_flush_region(&Ctx.RT, FlushStart, 0x10000);
    });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    ASSERT_NE(Call, nullptr);
    Block.prepend(Call);
  }
};

TEST(Threads, FlushWhileThreadsSuspendedMidFragment) {
  Program P = sharedFnProgram(3, 400);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  for (CacheSharing Sharing :
       {CacheSharing::ThreadPrivate, CacheSharing::Shared}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = Sharing;
    Config.ThreadQuantum = 700; // frequent mid-fragment suspensions
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    CrossThreadFlushClient C;
    C.HookTag = P.symbol("wloop0");
    C.FlushStart = P.symbol("worker0");
    ThreadedRunner Runner(M, Config, &C);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited)
        << R.FaultReason << " mode " << int(Sharing);
    EXPECT_EQ(M.output(), Native.output()) << "mode " << int(Sharing);
    EXPECT_EQ(C.Flushes, 3) << "mode " << int(Sharing);
    EXPECT_GE(sumStat(Runner, "region_flushes"), 3u);
    EXPECT_GE(sumStat(Runner, "region_flushed_fragments"), 3u);
    EXPECT_GE(sumStat(Runner, "fragments_deleted"), 3u);
  }
}

TEST(Threads, FifoEvictionUnderThreads) {
  // Bounded caches with FIFO eviction, under quantum scheduling: evicting
  // a fragment some suspended thread is parked in must defer its bytes,
  // and the run must stay transparent in both sharing modes.
  Program P = sharedFnProgram(3, 400);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  for (CacheSharing Sharing :
       {CacheSharing::ThreadPrivate, CacheSharing::Shared}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = Sharing;
    // Shared mode packs every thread's working set into ONE bounded cache,
    // and guard-pinned slots of suspended threads cannot be reclaimed, so
    // its floor is a bit higher than a single private slice's.
    bool IsShared = Sharing == CacheSharing::Shared;
    Config.BbCacheSize = IsShared ? 640 : 256;
    Config.TraceCacheSize = IsShared ? 640 : 256;
    Config.ThreadQuantum = 700;
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    ThreadedRunner Runner(M, Config);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited)
        << R.FaultReason << " mode " << int(Sharing);
    EXPECT_EQ(M.output(), Native.output()) << "mode " << int(Sharing);
    EXPECT_GE(sumStat(Runner, "cache_evictions"), 1u) << "mode "
                                                      << int(Sharing);
  }
}

//===----------------------------------------------------------------------===//
// Versioned publication and epoch retirement under threads
//===----------------------------------------------------------------------===//

/// sharedFnProgram, plus a private warm-up loop per worker that is hot
/// enough (> TraceThreshold iterations) to become its own trace. The
/// publishing hook below skips the trace it returns into, so this
/// guarantees at least one eligible trace even in ThreadPrivate mode,
/// where a runtime only ever sees its own thread's fragments.
Program republishProgram(int Workers, int Iters) {
  std::string S = R"(
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
    S += "  mov edx, 120\n"; // warm-up: its own trace, no hook block
    S += "prep" + Id + ":\n";
    S += "  add esi, edx\n";
    S += "  dec edx\n  jnz prep" + Id + "\n";
    S += "  and esi, 1023\n";
    S += "  mov ecx, " + std::to_string(Iters) + "\n";
    S += "wloop" + Id + ":\n";
    S += "  mov eax, ecx\n";
    S += "  call shared_fn\n";
    S += "  add esi, eax\n  and esi, 0xFFFFFF\n";
    S += "  dec ecx\n  jnz wloop" + Id + "\n";
    S += "  mov [results+" + std::to_string(W * 4) + "], esi\n";
    S += "  mov eax, 1\n  mov [flags+" + std::to_string(W * 4) + "], eax\n";
    S += "  mov eax, 6\n  int 0x80\n"; // thread_exit
  }
  S += R"(
    shared_fn:
      imul eax, eax, 17
      and eax, 1023
      add eax, 3
      ret
  )";
  return assembleOrDie(S);
}

/// From worker 0's loop body, periodically republishes every live trace
/// except the one it is currently executing in, decoded from its own
/// cache bytes. Each publication installs a new version and retires the
/// old body under a publication epoch while the *other* workers are
/// suspended mid-quantum — possibly inside the retired bytes, which run
/// on, guard-pinned, until each worker leaves at its next exit.
class CrossThreadPublishClient : public Client {
public:
  AppPc HookTag = 0;
  int MaxRounds = 12;
  int Rounds = 0;
  int Publications = 0;
  /// Most trace-cache bytes ever left pending right after a round. Every
  /// publication allocates, and an allocation reclaims each pending slot
  /// that no guard pc lies in; so apart from the slot the round's last
  /// publication retired, whatever stays pending is a retired body that a
  /// suspended context's resume pc still pins (a superseded one, where the
  /// caches are too large to evict).
  uint32_t MaxPinnedBytes = 0;

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Tag != HookTag)
      return;
    uint32_t Id = RT.registerCleanCall([this](CleanCallContext &Ctx) {
      if (Rounds >= MaxRounds)
        return;
      std::vector<AppPc> Tags;
      Ctx.RT.forEachFragment([&](const Fragment &F) {
        // Skip the fragment this clean call returns into.
        if (F.isTrace() && F.Tag != Ctx.FragmentTag)
          Tags.push_back(F.Tag);
      });
      if (Tags.empty())
        return;
      ++Rounds;
      uint32_t LastSlot = 0;
      for (AppPc T : Tags) {
        const Fragment *Old = Ctx.RT.lookupFragment(T);
        InstrList *IL = dr_decode_fragment(&Ctx.RT, T);
        if (!IL || !dr_publish_fragment(&Ctx.RT, T, IL))
          continue;
        ++Publications;
        LastSlot = (Old->CodeSize + Old->StubsSize + 3u) & ~3u;
      }
      uint32_t Pending =
          Ctx.RT.cacheManager().pendingReclaimBytes(Fragment::Kind::Trace);
      if (Pending > LastSlot)
        MaxPinnedBytes = std::max(MaxPinnedBytes, Pending - LastSlot);
    });
    Instr *Call = Instr::createSynth(Block.arena(), OP_clientcall,
                                     {Operand::imm(int64_t(Id), 4)});
    ASSERT_NE(Call, nullptr);
    Block.prepend(Call);
  }
};

TEST(Threads, PublicationWhileThreadsSuspendedMidTrace) {
  Program P = republishProgram(3, 400);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  for (CacheSharing Sharing :
       {CacheSharing::ThreadPrivate, CacheSharing::Shared}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = Sharing;
    Config.ThreadQuantum = 700; // frequent mid-fragment suspensions
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    CrossThreadPublishClient C;
    C.HookTag = P.symbol("wloop0");
    ThreadedRunner Runner(M, Config, &C);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited)
        << R.FaultReason << " mode " << int(Sharing);
    EXPECT_EQ(M.output(), Native.output()) << "mode " << int(Sharing);
    EXPECT_GE(C.Publications, 1) << "mode " << int(Sharing);
    EXPECT_GE(sumStat(Runner, "sideline_versions_published"), 1u);
    if (Sharing == CacheSharing::Shared) {
      // Four contexts share one runtime: with twelve publication rounds
      // against a 700-cycle quantum, some worker was suspended inside a
      // body that a publication superseded, and it finished there.
      EXPECT_GT(C.MaxPinnedBytes, 0u);
      Runtime *RT0 = Runner.runtimeFor(0);
      ASSERT_NE(RT0, nullptr);
      EXPECT_GE(RT0->publicationEpoch(), 1u);
    }
  }
}

TEST(Threads, SupersededVersionRetirementWithBoundedCaches) {
  // Superseded versions retire into a bounded FIFO cache mid-quantum: the
  // allocator may only reuse a retired slot once no suspended context's
  // guard pc lies in its bytes.
  Program P = republishProgram(3, 400);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  for (CacheSharing Sharing :
       {CacheSharing::ThreadPrivate, CacheSharing::Shared}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.Sharing = Sharing;
    bool IsShared = Sharing == CacheSharing::Shared;
    Config.BbCacheSize = IsShared ? 640 : 256;
    Config.TraceCacheSize = IsShared ? 768 : 384;
    Config.ThreadQuantum = 700;
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    CrossThreadPublishClient C;
    C.HookTag = P.symbol("wloop0");
    C.MaxRounds = 6;
    ThreadedRunner Runner(M, Config, &C);
    RunResult R = Runner.run();
    ASSERT_EQ(R.Status, RunStatus::Exited)
        << R.FaultReason << " mode " << int(Sharing);
    EXPECT_EQ(M.output(), Native.output()) << "mode " << int(Sharing);
    EXPECT_GE(sumStat(Runner, "cache_evictions"), 1u)
        << "mode " << int(Sharing);
  }
}

TEST(Threads, GettidSyscall) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 7
      int 0x80          ; gettid -> eax
      mov ebx, eax      ; main thread is tid 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 0);
}

} // namespace
