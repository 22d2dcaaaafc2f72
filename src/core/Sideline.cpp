//===- core/Sideline.cpp - Sideline (off-critical-path) optimization --------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Sideline.h"

#include "support/EventTrace.h"
#include "support/Metrics.h"

using namespace rio;

/// One deferred re-optimization: a trace body decoded at enqueue,
/// transformed and published when simulated time reaches ReadyCycle.
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
  bool Cancelled = false;  ///< captured version died (onFragmentDeleted)
};

SidelineOptimizer::SidelineOptimizer(Client &Inner, SidelineMode,
                                     uint64_t Seed)
    : Inner(Inner), Seed(Seed) {}

SidelineOptimizer::~SidelineOptimizer() = default;

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
    if (J->RT == &RT && J->Tag == Tag && !J->Cancelled)
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
  // transforms — or worse, installs — work for a dead body.
  for (auto &J : InFlight)
    if (J->RT == &RT && J->Tag == Tag && J->Target->Doomed)
      J->Cancelled = true;
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
    InFlight.push_back(std::move(J));
  }
}

void SidelineOptimizer::publishJob(Runtime &RT, Job *J) {
  Machine &M = RT.machine();
  Fragment *Live = RT.lookupFragment(J->Tag);
  if (J->Cancelled || Live != J->Target || J->Target->Doomed ||
      J->Target->Version != J->Version) {
    ++StaleDrops;
    RT.stats().counter("sideline_stale_drops") += 1;
    RIO_TRACE(RT.eventTrace(), M.cycles(), RT.activeContext().Tid,
              TraceEventKind::SidelineStaleDrop, J->Tag, uint32_t(J->Seq));
    return;
  }
  // The transform runs here, on the application thread, but the model
  // says it ran on the sideline core during [EnqueueCycle, ReadyCycle), so
  // every cycle it charges is refunded: the schedule and the published
  // code never depend on what the transform costs.
  uint64_t Before = M.cycles();
  Inner.onTrace(RT, J->Tag, *J->IL);
  uint64_t Charged = M.cycles() - Before;
  if (Charged)
    M.refundCycles(Charged);
  // Publication-side hook: runs on the application thread, where live
  // runtime state (fragment versions, machine memory) is readable.
  // Host-side list surgery only; it charges no simulated cycles, so the
  // seeded publication schedule is unaffected.
  Inner.onSidelinePublish(RT, J->Tag, *J->IL);
  if (!RT.publishVersion(J->Tag, *J->IL))
    return;
  ++Published;
}

void SidelineOptimizer::pump(Runtime &RT) {
  enqueueJobs();
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

//===----------------------------------------------------------------------===//
// Runtime glue
//===----------------------------------------------------------------------===//

RunResult rio::runWithSideline(Runtime &RT, SidelineOptimizer &Sideline,
                               uint64_t Quantum) {
  RunResult Last;
  for (;;) {
    Last = RT.runFor(Quantum);
    if (!Last.QuantumExpired)
      return Last;
    // The sideline core worked while the application ran on its own;
    // publish whatever came due: a thread stuck in a hot trace never
    // reaches a dispatch boundary, so the quantum boundary is where its
    // optimized version takes over (via OSR transfer: publishVersion
    // moves the suspended context, or its guard pc pins the old bytes).
    Sideline.pump(RT);
  }
}
