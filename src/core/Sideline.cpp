//===- core/Sideline.cpp - Sideline (off-critical-path) optimization --------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Host threading model (TSan-clean by construction):
//
//   - Exactly two host threads touch this object: the *application* thread
//     (whichever host thread drives Runtime::run/runFor — all simulated
//     threads share it) and the one *worker* thread. That is what makes the
//     SPSC rings valid.
//   - A Job crosses the ToWorker ring exactly once and comes back over
//     FromWorker exactly once; the ring's release/acquire pair orders every
//     plain field of the job (and its decoded InstrList, which lives in a
//     private per-job arena) across the hand-off. While the worker owns a
//     job, the application side reads none of its plain fields.
//   - Job::Cancelled is the only field written while the other side may
//     read it, so it is atomic (relaxed: it is a pure hint on the worker
//     side; publication-side staleness is re-checked by pointer identity).
//   - The condition variables only park/wake threads; all data flows
//     through the rings.
//
//===----------------------------------------------------------------------===//

#include "core/Sideline.h"

#include "support/EventTrace.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>

using namespace rio;

/// One asynchronous re-optimization: a trace body decoded on the
/// application thread, transformed by the worker, published when simulated
/// time reaches ReadyCycle.
struct SidelineOptimizer::Job {
  Runtime *RT = nullptr;
  AppPc Tag = 0;
  /// The exact fragment (version) the body was decoded from: publication
  /// is valid only while this is still the tag's live fragment. Pointer
  /// identity is ABA-safe because Fragment records are never freed during
  /// a run (doomed ones stay allocated).
  Fragment *Target = nullptr;
  uint32_t Version = 0;
  std::unique_ptr<Arena> A; ///< owns IL and everything it references
  InstrList *IL = nullptr;
  uint64_t Seq = 0;
  uint64_t EnqueueCycle = 0;
  uint64_t ReadyCycle = 0; ///< simulated publication due time
  std::atomic<bool> Cancelled{false};
  bool HandedOff = false; ///< went through ToWorker (else: transform inline)
  bool Done = false;      ///< came back through FromWorker
};

SidelineOptimizer::SidelineOptimizer(Client &Inner, SidelineMode,
                                     uint64_t Seed)
    : Inner(Inner), Seed(Seed) {
  // The worker exists only when the inner client may run on it; a
  // non-sideline-safe client keeps the publication schedule but
  // transforms inline at the publication point (publishJob).
  if (Inner.sidelineSafe())
    Worker = std::thread([this] { workerMain(); });
}

SidelineOptimizer::~SidelineOptimizer() {
  if (Worker.joinable()) {
    {
      std::lock_guard<std::mutex> L(Mu);
      Stopping = true;
    }
    WakeCv.notify_one();
    Worker.join();
  }
}

uint64_t SidelineOptimizer::virtualLatency(uint64_t Seed, uint64_t Seq) {
  // splitmix64 finalizer over a seed-salted sequence number: a fixed seed
  // plus the deterministic enqueue order yields a fixed schedule.
  uint64_t X = Seed + 0x9e3779b97f4a7c15ull * (Seq + 1);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  X ^= X >> 31;
  return 2000 + (X & 8191);
}

void SidelineOptimizer::onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) {
  (void)Trace;
  Queued.push_back({&RT, Tag});
}

bool SidelineOptimizer::requestReopt(Runtime &RT, AppPc Tag) {
  for (const QueuedTrace &Q : Queued)
    if (Q.RT == &RT && Q.Tag == Tag)
      return false;
  for (const auto &J : InFlight)
    if (J->RT == &RT && J->Tag == Tag &&
        !J->Cancelled.load(std::memory_order_relaxed))
      return false;
  Fragment *Frag = RT.lookupFragment(Tag);
  if (!Frag || !Frag->isTrace())
    return false;
  Queued.push_back({&RT, Tag});
  return true;
}

void SidelineOptimizer::onFragmentDeleted(Runtime &RT, AppPc Tag) {
  // Queued (pre-decode) tags are NOT dropped here — when a trace
  // supersedes the basic block under the same tag, the block's deletion
  // hook fires right after the trace was queued — so enqueueJobs
  // re-validates them at decode time. Decoded jobs, however, recorded the
  // exact version they captured: purge any whose captured version just
  // died (deleted, flushed, or superseded) so a publication point never
  // waits on — or worse, installs — work for a dead body.
  for (auto &J : InFlight)
    if (J->RT == &RT && J->Tag == Tag && J->Target->Doomed)
      J->Cancelled.store(true, std::memory_order_relaxed);
  Inner.onFragmentDeleted(RT, Tag);
}

void SidelineOptimizer::enqueueJobs() {
  while (!Queued.empty() && InFlight.size() < MaxInFlight) {
    QueuedTrace Q = Queued.front();
    Queued.pop_front();
    Runtime &RT = *Q.RT;
    Fragment *Frag = RT.lookupFragment(Q.Tag);
    if (!Frag || !Frag->isTrace())
      continue; // vanished or superseded since queuing
    auto J = std::make_unique<Job>();
    J->RT = &RT;
    J->Tag = Q.Tag;
    J->Target = Frag;
    J->Version = Frag->Version;
    J->A = std::make_unique<Arena>(1u << 14);
    J->IL = RT.decodeFragment(*J->A, Q.Tag);
    if (!J->IL)
      continue;
    J->Seq = NextSeq++;
    J->EnqueueCycle = RT.machine().cycles();
    J->ReadyCycle = J->EnqueueCycle + virtualLatency(Seed, J->Seq);
    RT.stats().counter("sideline_jobs_enqueued") += 1;
    RIO_TRACE(RT.eventTrace(), RT.machine().cycles(), RT.activeContext().Tid,
              TraceEventKind::SidelineEnqueued, Q.Tag, uint32_t(J->Seq));
    Job *Raw = J.get();
    InFlight.push_back(std::move(J));
    if (Worker.joinable() && ToWorker.push(Raw)) {
      Raw->HandedOff = true;
      std::lock_guard<std::mutex> L(Mu);
      WakeCv.notify_one();
    }
  }
}

void SidelineOptimizer::drainResults() {
  Job *J = nullptr;
  while (FromWorker.pop(J))
    J->Done = true;
}

void SidelineOptimizer::waitForJob(Job *J) {
  drainResults();
  if (J->Done)
    return;
  // Host wall-clock wait only: simulated time says the sideline core
  // finished at ReadyCycle; the host worker merely has not caught up.
  std::unique_lock<std::mutex> L(Mu);
  DoneCv.wait(L, [&] {
    drainResults();
    return J->Done;
  });
}

void SidelineOptimizer::publishJob(Runtime &RT, Job *J) {
  Machine &M = RT.machine();
  Fragment *Live = RT.lookupFragment(J->Tag);
  if (J->Cancelled.load(std::memory_order_relaxed) || Live != J->Target ||
      J->Target->Doomed || J->Target->Version != J->Version) {
    ++StaleDrops;
    RT.stats().counter("sideline_stale_drops") += 1;
    RIO_TRACE(RT.eventTrace(), M.cycles(), RT.activeContext().Tid,
              TraceEventKind::SidelineStaleDrop, J->Tag, uint32_t(J->Seq));
    return;
  }
  if (!J->HandedOff) {
    // No worker (non-sideline-safe client): the transform runs here, on
    // the application thread — but the model says it ran on the sideline
    // core during [EnqueueCycle, ReadyCycle), so every cycle it charges is
    // refunded. This keeps the published code AND the cycle schedule
    // identical with and without a host worker.
    uint64_t Before = M.cycles();
    Inner.onTrace(RT, J->Tag, *J->IL);
    uint64_t Charged = M.cycles() - Before;
    if (Charged)
      M.refundCycles(Charged);
  }
  // Publication-side hook: runs on the application thread, where live
  // runtime state (fragment versions, machine memory, the speculation
  // blacklist) is readable — the speculative tier of the trace optimizer
  // emits its guards here. Host-side list surgery only; it charges no
  // simulated cycles, so the seeded publication schedule is unaffected.
  Inner.onSidelinePublish(RT, J->Tag, *J->IL);
  if (!RT.publishVersion(J->Tag, *J->IL))
    return;
  ++Published;
}

void SidelineOptimizer::pump(Runtime &RT) {
  enqueueJobs();
  drainResults();
  // Publish every job of this runtime whose virtual completion time has
  // arrived, oldest first. Stopping at the first not-yet-due job keeps
  // publication FIFO per runtime (the schedule can never reorder two
  // optimizations of the same trace).
  for (size_t I = 0; I < InFlight.size();) {
    Job *J = InFlight[I].get();
    if (J->RT != &RT) {
      ++I;
      continue;
    }
    if (J->ReadyCycle > RT.machine().cycles())
      break;
    if (J->HandedOff)
      waitForJob(J);
    std::unique_ptr<Job> Owned = std::move(InFlight[I]);
    InFlight.erase(InFlight.begin() + ptrdiff_t(I));
    // Publish after unhooking from InFlight: publishVersion fires the
    // fragment-deleted hook, which walks InFlight to purge stale jobs.
    publishJob(RT, Owned.get());
  }
}

void SidelineOptimizer::registerMetrics(MetricsRegistry &MR, uint32_t Source) {
  MR.addGauge(Source, "sideline_pending_jobs",
              [this] { return uint64_t(pendingCount()); });
  MR.addCounter(Source, "sideline_published_total",
                [this] { return Published; });
  MR.addCounter(Source, "sideline_stale_drops_total",
                [this] { return StaleDrops; });
}

void SidelineOptimizer::quiesce() {
  drainResults();
  if (!Worker.joinable())
    return;
  std::unique_lock<std::mutex> L(Mu);
  DoneCv.wait(L, [&] {
    drainResults();
    for (const auto &J : InFlight)
      if (J->HandedOff && !J->Done)
        return false;
    return true;
  });
}

void SidelineOptimizer::workerMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> L(Mu);
      WakeCv.wait(L, [&] { return Stopping || !ToWorker.empty(); });
      if (Stopping)
        return;
    }
    Job *J = nullptr;
    while (ToWorker.pop(J)) {
      if (!J->Cancelled.load(std::memory_order_relaxed))
        Inner.onTrace(*J->RT, J->Tag, *J->IL);
      while (!FromWorker.push(J)) // full is impossible (MaxInFlight bound)
        std::this_thread::yield();
      std::lock_guard<std::mutex> L(Mu);
      DoneCv.notify_all();
    }
  }
}

//===----------------------------------------------------------------------===//
// Runtime glue
//===----------------------------------------------------------------------===//

void rio::Runtime::pumpSideline() {
  // Dispatch boundary: this thread holds no cache pc, so it has passed a
  // safe point for every publication so far — record that before giving
  // the pump a chance to retire more versions.
  TC->SafeEpoch = PubEpoch;
  Config.SidelinePump->pump(*this);
}

RunResult rio::runWithSideline(Runtime &RT, SidelineOptimizer &Sideline,
                               uint64_t Quantum) {
  RunResult Last;
  for (;;) {
    Last = RT.runFor(Quantum);
    if (!Last.QuantumExpired)
      return Last;
    // The sideline worked while the application ran on its own core;
    // publish whatever came due: a thread stuck in a hot trace never
    // reaches a dispatch boundary, so the quantum boundary is where its
    // optimized version takes over (via OSR transfer — the suspended
    // context is *not* at a safe point, so no SafeEpoch stamp here;
    // publishVersion moves it or its guard pc pins the old bytes).
    Sideline.pump(RT);
  }
}
