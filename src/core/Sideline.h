//===- core/Sideline.h - Sideline (off-critical-path) optimization ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's proposed "sideline optimization" (Section 3.4): "We plan to
/// investigate using a concurrent thread for sideline optimization using
/// this low-overhead trace replacement." SidelineOptimizer models that
/// sideline processor in simulated time: onTrace enqueues the (runtime,
/// tag) pair; at each dispatch boundary the runtime's pump() converts
/// queued tags into jobs (the fragment body is decoded into a private
/// per-job arena, stamped with the exact fragment version it captured)
/// and publishes due jobs as new fragment *versions*
/// (Runtime::publishVersion): link graph swapped atomically, the old body
/// retired. A thread suspended in the old body finishes there, leaving at
/// its next exit; its guard pc keeps the old bytes alive until then.
///
/// Each job's completion is scheduled on simulated time by a seeded
/// virtual-completion latency (docs/sideline-cost-model.md). The transform
/// itself runs on the application thread at the job's publication point,
/// with every cycle it charges refunded: the model says it ran on the
/// otherwise idle sideline core during the latency window, so simulated
/// behavior is a pure function of the seed.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_SIDELINE_H
#define RIO_CORE_SIDELINE_H

#include "core/Runtime.h"

#include <deque>
#include <memory>

namespace rio {

/// Wraps an optimization client, deferring its trace hook to sideline
/// processing. All other hooks forward unchanged.
class SidelineOptimizer : public Client {
public:
  /// \p Inner is the optimization client whose trace transformations are
  /// deferred (not owned). Its basic-block and end-trace hooks still run
  /// synchronously — only trace *transformation* moves off the hot path.
  /// \p Seed fixes the virtual-completion schedule; the SidelineMode
  /// argument has no effect (RuntimeConfig.h).
  explicit SidelineOptimizer(Client &Inner,
                             SidelineMode = SidelineMode::Async,
                             uint64_t Seed = 0x5eed51deull);
  ~SidelineOptimizer() override;

  void onInit(Runtime &RT) override { Inner.onInit(RT); }
  void onExit(Runtime &RT) override { Inner.onExit(RT); }
  void onThreadInit(Runtime &RT) override { Inner.onThreadInit(RT); }
  void onThreadExit(Runtime &RT) override { Inner.onThreadExit(RT); }
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    Inner.onBasicBlock(RT, Tag, Block);
  }
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override;
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override {
    return Inner.onIndirectResolved(RT, BranchOp, Target);
  }
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override {
    return Inner.onEndTrace(RT, TraceTag, NextTag);
  }
  /// Persist composes with sideline when the inner transform is pure: only
  /// published (live) versions are serialized — in-flight jobs are
  /// host-side state and simply never happen in the warm-started run.
  bool persistSafe() const override { return Inner.persistSafe(); }

  /// Queues the trace for sideline optimization instead of transforming it
  /// now (the trace is emitted as-is; the app keeps running).
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;

  /// Re-optimization request: queues the live trace at \p Tag for another
  /// sideline pass as if onTrace had just fired — decoded at the next
  /// dispatch boundary, transformed and published on the seeded
  /// virtual-completion schedule. Requests for a tag that already has work
  /// queued or in flight are dropped, as are tags without a live trace.
  /// Returns true iff the tag was queued.
  bool requestReopt(Runtime &RT, AppPc Tag);

  /// Publication point, called by the runtime at every dispatch boundary
  /// (through RuntimeConfig::SidelinePump): converts
  /// queued traces into jobs, then transforms and publishes every job
  /// whose virtual completion time has been reached, in enqueue order per
  /// runtime.
  void pump(Runtime &RT);

  /// Queued + in-flight work not yet published or dropped.
  size_t pendingCount() const { return Queued.size() + InFlight.size(); }
  /// Versions installed by publishVersion.
  uint64_t versionsPublished() const { return Published; }
  /// Jobs dropped because their captured version died before its
  /// publication point (delete, flush, supersession).
  uint64_t staleDrops() const { return StaleDrops; }

  /// Registers the optimizer's own telemetry under source \p Source of
  /// \p MR: the pending-work gauge plus published/stale-drop counters.
  /// Names are distinct from the per-runtime sideline statistics
  /// (which already roll up per tenant), so one optimizer serving many
  /// runtimes is not double-counted in the fleet rollup. Defined in
  /// Sideline.cpp.
  void registerMetrics(MetricsRegistry &MR, uint32_t Source);

private:
  struct Job;

  void enqueueJobs();
  void publishJob(Runtime &RT, Job *J);
  /// Simulated cycles between a job's enqueue and its publication
  /// becoming due: a splitmix64-style hash of (Seed, Seq), so the
  /// schedule is a pure function of the seed and the (deterministic)
  /// enqueue order. Range [2000, 10192).
  static uint64_t virtualLatency(uint64_t Seed, uint64_t Seq);

  Client &Inner;
  uint64_t Seed;

  /// Traces queued by onTrace, not yet decoded into jobs. Entries carry
  /// their runtime so one optimizer serves every thread-private runtime.
  struct QueuedTrace {
    Runtime *RT;
    AppPc Tag;
  };
  std::deque<QueuedTrace> Queued;
  /// Decoded jobs awaiting publication, in enqueue (Seq) order.
  std::deque<std::unique_ptr<Job>> InFlight;
  uint64_t NextSeq = 0;
  uint64_t Published = 0;
  uint64_t StaleDrops = 0;

  /// Jobs decoded ahead of publication; further queued traces wait for the
  /// next pump. Part of the schedule: it decides which pump decodes (and
  /// so sequences and time-stamps) a queued trace.
  static constexpr size_t MaxInFlight = 128;
};

/// Drives an application thread and the sideline optimizer concurrently:
/// the application runs in quanta, and every quantum boundary is a
/// publication point. A thread stuck in a hot trace never reaches a
/// dispatch boundary, so this is where its optimized version takes over.
RunResult runWithSideline(Runtime &RT, SidelineOptimizer &Sideline,
                          uint64_t Quantum = 3000);

} // namespace rio

#endif // RIO_CORE_SIDELINE_H
