//===- tests/sideline_test.cpp - Sideline optimization tests -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "clients/Clients.h"
#include "core/Sideline.h"
#include "persist/CacheImage.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <vector>

using namespace rio;
using namespace rio::test;

namespace {

/// The full configuration with \p Sideline pumped at every dispatch
/// boundary.
RuntimeConfig pumpedBy(SidelineOptimizer &Sideline) {
  RuntimeConfig Config = RuntimeConfig::full();
  Config.SidelinePump = &Sideline;
  return Config;
}

TEST(Sideline, OptimizesTracesOffTheCriticalPath) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RlrClient Inner;
  SidelineOptimizer Sideline(Inner);
  Runtime RT(M, pumpedBy(Sideline), &Sideline);
  RunResult R = runWithSideline(RT, Sideline);
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(Sideline.versionsPublished(), 1u);
  EXPECT_GE(Inner.loadsForwarded() + Inner.loadsRemoved(), 1u);
  EXPECT_EQ(RT.stats().get("sideline_versions_published"),
            Sideline.versionsPublished());
}

TEST(Sideline, StillDeliversTheSpeedup) {
  // On mgrid the deferred redundant-load removal must still beat the
  // unoptimized runtime once the sideline has swapped the hot trace in.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, 0);

  auto Run = [&](bool WithSideline) {
    Machine M;
    loadProgram(M, P);
    RlrClient Inner;
    if (!WithSideline) {
      Runtime RT(M, RuntimeConfig::full(), nullptr);
      return RT.run().Cycles;
    }
    SidelineOptimizer Sideline(Inner);
    Runtime RT(M, pumpedBy(Sideline), &Sideline);
    return runWithSideline(RT, Sideline).Cycles;
  };
  uint64_t Base = Run(false);
  uint64_t Sideline = Run(true);
  EXPECT_LT(Sideline, Base);
}

/// A deliberately heavyweight optimizer: models an aggressive analysis
/// (e.g. value-range or scheduling passes) costing many cycles per trace.
/// Exactly the kind of client whose cost the paper's sideline proposal
/// moves off the application's critical path.
class ExpensiveOptimizer : public Client {
public:
  unsigned CyclesPerTrace = 25000;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    Inner.onTrace(RT, Tag, Trace);
    RT.machine().chargeCycles(CyclesPerTrace); // the heavy analysis
  }
  RlrClient Inner;
};

TEST(Sideline, PaysOffForExpensiveOptimizations) {
  // The sideline's raison d'etre (paper Section 3.4): expensive
  // optimization time comes off the application's critical path — the
  // inline client eats the full analysis cost, the sideline only the
  // publication cost.
  for (const char *Name : {"gcc", "perlbmk", "mgrid"}) {
    const Workload *W = findWorkload(Name);
    Program P = buildWorkload(*W, 0);

    uint64_t Inline;
    {
      Machine M;
      loadProgram(M, P);
      ExpensiveOptimizer Opt;
      Runtime RT(M, RuntimeConfig::full(), &Opt);
      Inline = RT.run().Cycles;
    }
    uint64_t Side;
    {
      Machine M;
      loadProgram(M, P);
      ExpensiveOptimizer Opt;
      SidelineOptimizer Sideline(Opt);
      Runtime RT(M, pumpedBy(Sideline), &Sideline);
      Side = runWithSideline(RT, Sideline).Cycles;
    }
    EXPECT_LT(Side, Inline) << Name;
  }
}

TEST(Sideline, CheapClientsCostAboutTheSame) {
  // For lightweight transformations the sideline's publication cost
  // roughly cancels its deferral benefit: it must at least stay within a
  // few percent (its value is for heavyweight optimizers, above).
  const Workload *W = findWorkload("perlbmk");
  Program P = buildWorkload(*W, 0);
  uint64_t Inline;
  {
    Machine M;
    loadProgram(M, P);
    StrengthReduceClient C;
    Runtime RT(M, RuntimeConfig::full(), &C);
    Inline = RT.run().Cycles;
  }
  uint64_t Side;
  {
    Machine M;
    loadProgram(M, P);
    StrengthReduceClient C;
    SidelineOptimizer Sideline(C);
    Runtime RT(M, pumpedBy(Sideline), &Sideline);
    Side = runWithSideline(RT, Sideline).Cycles;
  }
  EXPECT_LT(double(Side), double(Inline) * 1.05);
}

//===----------------------------------------------------------------------===//
// Versioned publication on the seeded schedule
//===----------------------------------------------------------------------===//

struct AsyncRun {
  uint64_t Cycles = 0;
  std::string Output;
  uint64_t Published = 0;
  uint64_t StaleDrops = 0;
  uint64_t Epoch = 0;
  uint64_t Enqueued = 0;
};

/// One full sideline run of \p P with \p Inner as the inner optimizer.
AsyncRun runAsyncOnce(const Program &P, uint64_t Seed, Client &Inner) {
  Machine M;
  EXPECT_TRUE(loadProgram(M, P));
  SidelineOptimizer Sideline(Inner, SidelineMode::Async, Seed);
  Runtime RT(M, pumpedBy(Sideline), &Sideline);
  RunResult R = runWithSideline(RT, Sideline);
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  return {R.Cycles,
          M.output(),
          Sideline.versionsPublished(),
          Sideline.staleDrops(),
          RT.publicationEpoch(),
          RT.stats().get("sideline_jobs_enqueued")};
}

AsyncRun runAsyncOnce(const Program &P, uint64_t Seed) {
  RlrClient Inner;
  return runAsyncOnce(P, Seed, Inner);
}

TEST(Sideline, AsyncPublishesVersionsTransparently) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);
  AsyncRun R = runAsyncOnce(P, /*Seed=*/0x5eed51deull);
  EXPECT_EQ(R.Output, Native.Output);
  EXPECT_GE(R.Enqueued, 1u);
  EXPECT_GE(R.Published, 1u);
  // Every publication minted exactly one epoch.
  EXPECT_EQ(R.Epoch, R.Published);
}

TEST(Sideline, AsyncIsDeterministicForAFixedSeed) {
  // Publication happens on the seeded virtual-completion schedule: two
  // runs with the same seed must be cycle-identical, not merely
  // output-identical.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  AsyncRun A = runAsyncOnce(P, /*Seed=*/7);
  AsyncRun B = runAsyncOnce(P, /*Seed=*/7);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Published, B.Published);
  EXPECT_EQ(A.StaleDrops, B.StaleDrops);
  // A different seed shifts completion times but never correctness.
  AsyncRun C = runAsyncOnce(P, /*Seed=*/1234);
  EXPECT_EQ(A.Output, C.Output);
}

TEST(Sideline, TransformCyclesAreRefunded) {
  // The transform runs at the publication point on the application
  // thread, but the model puts it on the sideline core: every cycle it
  // charges is refunded. The same seed with a free and a 25k-cycle-per-
  // trace transform publishes the same versions at the same simulated
  // instants.
  for (const char *Name : {"mgrid", "crafty"}) {
    const Workload *W = findWorkload(Name);
    Program P = buildWorkload(*W, W->TestScale);
    RlrClient Cheap;
    ExpensiveOptimizer Expensive;
    AsyncRun A = runAsyncOnce(P, /*Seed=*/7, Cheap);
    AsyncRun B = runAsyncOnce(P, /*Seed=*/7, Expensive);
    EXPECT_GE(A.Published, 1u) << Name;
    EXPECT_EQ(A.Cycles, B.Cycles) << Name;
    EXPECT_EQ(A.Output, B.Output) << Name;
    EXPECT_EQ(A.Published, B.Published) << Name;
    EXPECT_EQ(A.StaleDrops, B.StaleDrops) << Name;
    EXPECT_EQ(A.Epoch, B.Epoch) << Name;
  }
}

TEST(Sideline, AsyncDeleteWhileQueuedIsPurged) {
  // Regression: a cache flush lands while decoded jobs are in flight. The
  // deletion hook must cancel the jobs captured against the now-dead
  // versions; they surface as stale drops, never as publications into a
  // dead fragment.
  Program P = buildWorkload(*findWorkload("crafty"), 30);
  NativeRun Native = runNative(P);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  StrengthReduceClient Inner;
  SidelineOptimizer Sideline(Inner, SidelineMode::Async, 42);
  Runtime RT(M, pumpedBy(Sideline), &Sideline);
  RunResult R;
  bool Flushed = false;
  for (;;) {
    R = RT.runFor(400);
    if (!R.QuantumExpired)
      break;
    if (!Flushed && Sideline.pendingCount() > 0) {
      RT.flushCaches(); // every queued job's target version dies here
      Flushed = true;
    }
  }
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  ASSERT_TRUE(Flushed);
  EXPECT_EQ(M.output(), Native.Output);
  EXPECT_GE(Sideline.staleDrops(), 1u);
  EXPECT_GE(RT.stats().get("sideline_stale_drops"), 1u);
}

TEST(Sideline, VersionQueryApi) {
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  AppPc Missing = 1; // no fragment will ever carry tag 1
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RlrClient Inner;
  SidelineOptimizer Sideline(Inner, SidelineMode::Async, 7);
  Runtime RT(M, pumpedBy(Sideline), &Sideline);
  ASSERT_EQ(runWithSideline(RT, Sideline).Status, RunStatus::Exited);
  ASSERT_GE(Sideline.versionsPublished(), 1u);
  EXPECT_EQ(dr_fragment_version(&RT, Missing), -1);
  EXPECT_EQ(dr_publication_epoch(&RT), RT.publicationEpoch());
  // Some republished trace must report a bumped version number.
  int MaxVersion = 0;
  RT.forEachFragment([&](const Fragment &F) {
    EXPECT_EQ(dr_fragment_version(&RT, F.Tag), int(F.Version));
    MaxVersion = std::max(MaxVersion, int(F.Version));
  });
  EXPECT_GE(MaxVersion, 1);
}

TEST(Sideline, PersistRoundTripUnderSideline) {
  // PR 6 forbade cache images whenever any client was attached; the gate
  // is now persistSafe(), so a sideline-wrapped pure optimizer serializes
  // (only published versions live in the table) and warm-starts.
  const Workload *W = findWorkload("mgrid");
  Program P = buildWorkload(*W, W->TestScale);
  NativeRun Native = runNative(P);

  std::vector<uint8_t> Image;
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    RlrClient Inner;
    SidelineOptimizer Sideline(Inner);
    Runtime RT(M, pumpedBy(Sideline), &Sideline);
    ASSERT_EQ(runWithSideline(RT, Sideline).Status, RunStatus::Exited);
    ASSERT_GE(Sideline.versionsPublished(), 1u);
    ASSERT_TRUE(persist::CacheCodec::save(RT, Image));
  }
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    RlrClient Inner;
    SidelineOptimizer Sideline(Inner);
    Runtime RT(M, pumpedBy(Sideline), &Sideline);
    ASSERT_EQ(persist::CacheCodec::load(RT, Image.data(), Image.size()),
              persist::LoadStatus::Ok);
    EXPECT_GE(RT.numFragments(), 1u);
    // The image carries each trace's OSR descriptors.
    unsigned TracesWithOsr = 0;
    RT.forEachFragment(
        [&](const Fragment &F) { TracesWithOsr += !F.OsrPoints.empty(); });
    EXPECT_GE(TracesWithOsr, 1u);
    RunResult R = runWithSideline(RT, Sideline);
    ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    EXPECT_EQ(M.output(), Native.Output);
  }
}

TEST(Sideline, QueueDrainsAndSurvivesFlushes) {
  Program P = buildWorkload(*findWorkload("crafty"), 30);
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  StrengthReduceClient Inner;
  SidelineOptimizer Sideline(Inner);
  Runtime RT(M, pumpedBy(Sideline), &Sideline);
  RunResult R = runWithSideline(RT, Sideline, /*Quantum=*/500);
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  // Whatever remains queued at exit is simply unprocessed; nothing stale
  // blew up, and flush/replace notifications kept the queue consistent.
  uint64_t Published = Sideline.versionsPublished();
  RT.flushCaches();
  Sideline.pump(RT); // every queued tag and captured version is now dead
  EXPECT_EQ(Sideline.versionsPublished(), Published);
}

} // namespace
