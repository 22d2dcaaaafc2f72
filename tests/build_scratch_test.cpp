//===- tests/build_scratch_test.cpp - Build scratch is released ------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lists a fragment is built from are scratch: each build allocates
/// them from its own arena and frees it once the fragment is emitted. What
/// a runtime keeps after a run must therefore not grow with the number of
/// traces it built.
///
/// Arena slabs are the only array allocations in the runtime, so this
/// binary replaces the global array new/delete to count the array bytes
/// alive at any moment: the arena bytes a runtime holds. The machine's run
/// index and pool (see Machine::run) are array allocations too: their
/// bytes, like the arenas', must not grow with the instructions run.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> LiveArrayBytes{0};

/// Room for the size in front of each array, keeping max_align_t alignment.
constexpr size_t Header = alignof(std::max_align_t);

} // namespace

void *operator new[](std::size_t Size) {
  void *P = std::malloc(Size + Header);
  if (!P)
    throw std::bad_alloc();
  *static_cast<std::size_t *>(P) = Size;
  LiveArrayBytes += Size;
  return static_cast<char *>(P) + Header;
}

void operator delete[](void *P) noexcept {
  if (!P)
    return;
  char *Block = static_cast<char *>(P) - Header;
  LiveArrayBytes -= *reinterpret_cast<std::size_t *>(Block);
  std::free(Block);
}

void operator delete[](void *P, std::size_t) noexcept { operator delete[](P); }

using namespace rio;

namespace {

struct Held {
  uint64_t Traces = 0;
  size_t ArenaBytes = 0;
};

/// Runs smc at \p Scale under 16 KB / 8 KB caches and returns the traces
/// built and the arena bytes the runtime still holds after the run.
Held runSmc(int Scale) {
  const Workload *W = findWorkload("smc");
  EXPECT_NE(W, nullptr);
  Machine M;
  EXPECT_TRUE(loadProgram(M, buildWorkload(*W, Scale)));
  RuntimeConfig C = RuntimeConfig::full();
  C.BbCacheSize = 16u << 10;
  C.TraceCacheSize = 8u << 10;
  size_t Before = LiveArrayBytes;
  Runtime RT(M, C);
  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  Held H;
  H.Traces = RT.stats().get("traces_built");
  H.ArenaBytes = LiveArrayBytes - Before;
  return H;
}

TEST(BuildScratch, RuntimeHoldsNoArenaBytesPerTraceBuilt) {
  Held Small = runSmc(4000);
  Held Large = runSmc(40000);
  ASSERT_GT(Large.Traces, 5 * Small.Traces);
  EXPECT_EQ(Large.ArenaBytes, Small.ArenaBytes)
      << Small.Traces << " traces held " << Small.ArenaBytes << " bytes, "
      << Large.Traces << " held " << Large.ArenaBytes;
}

/// Array bytes held at the last quantum boundary of a sliced run of smc.
struct MidRun {
  size_t ArrayBytes = 0;
  size_t RunBytes = 0;
};

/// Runs smc at \p Scale under 16 KB / 8 KB caches in quanta and returns
/// what the machine and runtime held at the last boundary before the end.
MidRun runSmcSliced(int Scale) {
  const Workload *W = findWorkload("smc");
  EXPECT_NE(W, nullptr);
  RuntimeConfig C = RuntimeConfig::full();
  C.BbCacheSize = 16u << 10;
  C.TraceCacheSize = 8u << 10;
  size_t Before = LiveArrayBytes;
  MidRun Mid;
  Machine M;
  EXPECT_TRUE(loadProgram(M, buildWorkload(*W, Scale)));
  Runtime RT(M, C);
  RunResult R;
  while ((R = RT.runFor(100000)).QuantumExpired) {
    Mid.ArrayBytes = LiveArrayBytes - Before;
    Mid.RunBytes = M.runBytes();
  }
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.runBytes(), 0u) << "an ended program keeps no runs";
  return Mid;
}

TEST(BuildScratch, RunStorageStaysUnderItsCap) {
  MidRun Small = runSmcSliced(4000);
  MidRun Large = runSmcSliced(40000);
  EXPECT_GT(Small.RunBytes, 0u);
  EXPECT_GE(Small.ArrayBytes, Small.RunBytes) << "runs are array allocations";
  EXPECT_EQ(Large.RunBytes, Small.RunBytes);
  EXPECT_EQ(Large.ArrayBytes, Small.ArrayBytes)
      << "runs or arenas grew with the instructions run";
}

TEST(BuildScratch, AForkBuildsItsOwnRunsOverTheLoanedDecodeCache) {
  const Workload *W = findWorkload("smc");
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  Machine T;
  ASSERT_TRUE(loadProgram(T, P));
  StopSet Half;
  {
    Machine Whole;
    ASSERT_TRUE(loadProgram(Whole, P));
    while (Whole.status() == RunStatus::Running)
      Whole.run(StopSet());
    Half.InstrLimit = Whole.instructionsExecuted() / 2;
  }
  while (T.status() == RunStatus::Running &&
         T.instructionsExecuted() < Half.InstrLimit)
    T.run(Half);
  ASSERT_EQ(T.status(), RunStatus::Running);
  ASSERT_GT(T.runBytes(), 0u);
  const PredecodedInstr *Line = T.fetchDecode(T.cpu().Pc);
  ASSERT_NE(Line, nullptr);

  Machine F(T);
  // Runs are not copied; the decode cache is loaned: until either side
  // writes the line's chunk, both read the template's line.
  EXPECT_EQ(F.runBytes(), 0u);
  EXPECT_EQ(F.fetchDecode(F.cpu().Pc), Line);
  while (F.status() == RunStatus::Running)
    F.run(StopSet());
  while (T.status() == RunStatus::Running)
    T.run(StopSet());
  EXPECT_EQ(F.status(), RunStatus::Exited) << F.faultReason();
  EXPECT_EQ(F.output(), T.output());
  EXPECT_EQ(F.cycles(), T.cycles());
}

} // namespace
