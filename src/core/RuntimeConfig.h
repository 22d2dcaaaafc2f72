//===- core/RuntimeConfig.h - Runtime feature configuration ----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feature switches for the runtime. The ladder of Table 1 in the paper is
/// expressed directly here:
///
///   emulation            Mode = Emulate
///   + basic block cache  Mode = Cache, all links off, traces off
///   + link direct        LinkDirectBranches = true
///   + link indirect      LinkIndirectBranches = true (in-cache IBL)
///   + traces             EnableTraces = true
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_RUNTIMECONFIG_H
#define RIO_CORE_RUNTIMECONFIG_H

#include "ir/Build.h"

namespace rio {

class EventTrace;
class SampleProfile;
class SidelineOptimizer;

/// How the sideline re-optimizer runs (core/Sideline.h). There is one way:
/// each deferred trace transform runs on the application thread at its
/// publication point, with its cycles refunded, on a seeded
/// virtual-completion schedule that keeps simulated cycles
/// bit-reproducible (docs/sideline-cost-model.md). The enum has no effect;
/// it survives only as a source-compatible constructor argument of
/// SidelineOptimizer.
enum class SidelineMode { Async };

enum class ExecMode {
  Emulate, ///< pure interpretation, no code cache
  Cache,   ///< copy code into the cache and run it there
};

/// What a bounded code cache does when it fills. There is one policy: evict
/// fragments incrementally, oldest first (paper Section 6's adaptive
/// replacement; wholesale flushing lost to it at every measured size,
/// EXPERIMENTS.md). The enum has no effect; it survives only so
/// RuntimeConfig::Eviction stays assignable.
enum class EvictionPolicy { Fifo };

/// How code caches relate to application threads (paper Section 2). The
/// paper asserts thread-private caches win because "the cost of duplicating
/// [shared code] for each thread was far outweighed by the savings of not
/// having to synchronize changes in the cache"; this knob makes both sides
/// of that trade-off runnable so the claim can actually be measured
/// (bench/bench_threads).
enum class CacheSharing {
  /// Each thread gets its own Runtime over a disjoint runtime-region slice:
  /// private spill slots, dispatcher entry, bb/trace caches, fragment
  /// table, and trace-head counters. No cross-thread coordination at all.
  ThreadPrivate,
  /// All threads execute from one bb cache, one trace cache, and one
  /// fragment table. Per-thread state (spill slots, suspension point,
  /// trace recording) lives in a ThreadContext that the scheduler swaps on
  /// every quantum context switch, and fragment deletion defers byte
  /// reclamation until *every* suspended thread has left the slot.
  Shared,
};

struct RuntimeConfig {
  ExecMode Mode = ExecMode::Cache;

  /// Patch direct exits to jump straight to their target fragment.
  bool LinkDirectBranches = true;

  /// Resolve indirect branch targets with the in-cache hashtable lookup
  /// (IBL) instead of a full context switch back to the dispatcher.
  bool LinkIndirectBranches = true;

  /// Build traces out of hot basic block sequences (NET).
  bool EnableTraces = true;

  /// Executions of a trace head before trace generation starts.
  unsigned TraceThreshold = 50;

  /// Maximum instructions lifted into one basic block.
  unsigned MaxBlockInstrs = 256;

  /// Representation level for freshly built basic blocks. The paper's
  /// default is a Level 0 bundle plus a decoded terminator; forcing higher
  /// levels costs real build cycles (the Ablation B bench measures this).
  LiftLevel BbLift = LiftLevel::Bundle0;

  /// Adaptive indirect-branch inline caches (Section 4.3 made adaptive):
  /// profile each indirect exit site host-side at the IBL boundary and,
  /// once a site is hot and skewed, rewrite the owning fragment in place
  /// with a chain of flags-free inline target checks whose arms jump
  /// straight to each target fragment. Off by default so the Table 1
  /// ladder and every recorded golden stay bit-identical.
  bool IbInline = false;

  /// Arrivals at one indirect site before a rewrite is considered.
  unsigned IbInlineThreshold = 64;

  /// Guard failures on one trace tag before the speculative trace
  /// optimizer blacklists it (no further speculation; the pristine rebuild
  /// stays published). Counted across versions — the counter belongs to
  /// the tag, not the body (core/TraceOpt.h).
  unsigned TraceOptBlacklistAfter = 3;

  /// No effect (see EvictionPolicy): a full cache always makes room by FIFO
  /// eviction (core/CacheManager.h).
  EvictionPolicy Eviction = EvictionPolicy::Fifo;

  /// Basic-block cache capacity in bytes; 0 = half of the runtime region's
  /// cache space. Values larger than the available space are clamped.
  uint32_t BbCacheSize = 0;

  /// Trace cache capacity in bytes; 0 = whatever the basic-block cache
  /// leaves free. Clamped like BbCacheSize.
  uint32_t TraceCacheSize = 0;

  /// Thread-private caches (the paper's design) or one synchronized shared
  /// cache for all threads (the alternative it argues against).
  CacheSharing Sharing = CacheSharing::ThreadPrivate;

  /// Scheduler capacity (core/ThreadedRunner): in ThreadPrivate mode the
  /// machine's runtime region is divided into this many thread slices, so
  /// lowering it gives few-thread runs proportionally larger private
  /// caches. Clamped so every slice can hold slots plus two minimal caches.
  unsigned MaxThreads = 8;

  /// Instructions each thread runs per round-robin scheduling quantum (the
  /// simulated analogue of an OS timeslice).
  uint64_t ThreadQuantum = 5000;

  /// Observability sink (support/EventTrace.h): when non-null the runtime
  /// records fragment-lifecycle events into this ring. Not owned; shared by
  /// every Runtime constructed from this config (ThreadedRunner passes the
  /// config to each per-thread runtime, so one ring sees all threads in
  /// both sharing modes). Recording is host-side only — it never charges
  /// simulated cycles, so traced and untraced runs are cycle-identical.
  EventTrace *Trace = nullptr;

  /// Cycle-driven sampling profiler (support/Profile.h): when non-null the
  /// runtime samples the executing fragment every Profiler->interval()
  /// simulated cycles and feeds the size/length/age histograms. Not owned;
  /// host-side only, like Trace.
  SampleProfile *Profiler = nullptr;

  /// Sideline optimizer (core/Sideline.h): the coordinator whose pump the
  /// runtime calls at each dispatch boundary. Not owned; rides by pointer
  /// like Trace/Profiler so ThreadedRunner's by-value config copies still
  /// reach the one coordinator. Null = no dispatch-boundary pump (quantum
  /// boundaries in runWithSideline still publish).
  SidelineOptimizer *SidelinePump = nullptr;

  /// Convenience constructors for the Table 1 ladder.
  static RuntimeConfig emulate() {
    RuntimeConfig C;
    C.Mode = ExecMode::Emulate;
    return C;
  }
  static RuntimeConfig bbCacheOnly() {
    RuntimeConfig C;
    C.LinkDirectBranches = false;
    C.LinkIndirectBranches = false;
    C.EnableTraces = false;
    return C;
  }
  static RuntimeConfig linkDirect() {
    RuntimeConfig C = bbCacheOnly();
    C.LinkDirectBranches = true;
    return C;
  }
  static RuntimeConfig linkIndirect() {
    RuntimeConfig C = linkDirect();
    C.LinkIndirectBranches = true;
    return C;
  }
  static RuntimeConfig full() { return RuntimeConfig(); }
};

} // namespace rio

#endif // RIO_CORE_RUNTIMECONFIG_H
