//===- core/Runtime.h - The DynamoRIO-style runtime -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime of Figure 1 in the paper: dispatcher, basic block builder,
/// thread-private basic-block and trace caches, direct linking, indirect
/// branch lookup (IBL), NET trace building with trace-head counters, exit
/// stubs (including client custom stubs), fragment deletion, and adaptive
/// fragment replacement (dr_decode_fragment / dr_replace_fragment).
///
/// Mechanically, cache code is real encoded RIO-32 placed in the runtime
/// region of the simulated address space and executed by the vm. Control
/// returns to the runtime when:
///   - the pc reaches the reserved dispatcher entry address (exit stubs
///     jump there after recording their exit id), i.e. a context switch;
///   - the pc lands back in the application region (an indirect branch
///     executed in the cache resolved to an application address) — the IBL
///     moment;
///   - a clean call (OP_clientcall) or syscall/fault/exit occurs.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_RUNTIME_H
#define RIO_CORE_RUNTIME_H

#include "core/CacheManager.h"
#include "core/Client.h"
#include "core/Fragment.h"
#include "core/FragmentTable.h"
#include "core/RuntimeConfig.h"
#include "ir/Emit.h"
#include "ir/InstrList.h"
#include "support/Arena.h"
#include "support/Compiler.h"
#include "support/EventTrace.h"
#include "support/Profile.h"
#include "support/Statistics.h"
#include "vm/Machine.h"

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

namespace rio {

namespace persist {
class CacheCodec;
}

class MetricsRegistry;

/// Offsets of runtime-reserved slots within the runtime region. The slots
/// are addressed absolutely by runtime-inserted code; they stand in for
/// DynamoRIO's thread-local spill slots (paper Section 3.2).
struct RuntimeSlots {
  uint32_t DispatcherEntry; ///< reserved pc: reaching it = context switch
  uint32_t ExitIdSlot;      ///< stubs record their exit id here
  uint32_t IbTargetSlot;    ///< scratch for indirect-branch miss paths
  uint32_t FlagsSlot;       ///< eflags preservation around inserted code
  uint32_t ClientTlsSlot;   ///< generic client thread-local field
  uint32_t SpillSlots;      ///< 8 register spill slots (4 bytes each)
  uint32_t ScratchSlots;    ///< 16 scratch words for client use
};

/// A sub-range of the machine's runtime region assigned to one Runtime
/// instance. Thread-private caches (paper Section 2) are realized by giving
/// each thread's runtime a disjoint region: its own spill slots, dispatcher
/// entry address, and basic-block/trace caches.
struct RuntimeRegion {
  uint32_t Base = 0; ///< 0: the whole machine runtime region
  uint32_t Size = 0; ///< 0: everything from Base to the region end
};

/// Per-thread execution state, split out of the Runtime proper so several
/// application threads can execute from one shared pair of code caches
/// (CacheSharing::Shared). Everything here is what distinguishes one
/// thread's view of the runtime from another's: where it is suspended,
/// whether it is mid-trace-recording, and the contents of its private slot
/// window. The cache layout (bb/trace ranges, fragment table, links) stays
/// in the Runtime and is shared by every context.
///
/// Emitted code addresses the spill/scratch slots absolutely, so rather
/// than re-emitting per-thread addresses the scheduler *banks* the slot
/// window on a context switch: the outgoing thread's window bytes are
/// copied into its SlotImage and the incoming thread's image is copied
/// back — the simulated analogue of re-pointing a TLS segment base.
struct ThreadContext {
  explicit ThreadContext(unsigned Tid) : Tid(Tid) {}

  unsigned Tid;

  /// Suspension state for Runtime::runFor (quantum-sliced execution).
  enum class Resume { Fresh, AtDispatcher, InCache };
  Resume ResumePoint = Resume::Fresh;
  AppPc ResumeTag = 0;
  uint32_t ResumeCachePc = 0;
  bool ThreadFinished = false;

  /// How control most recently returned to the dispatcher: true when it
  /// was a *direct backward branch* (the NET end-of-trace condition).
  bool LastTransitionBackwardBranch = false;

  /// Fragment (tag) whose code triggered the current client callback.
  AppPc CurrentFragmentTag = 0;

  /// Trace-recording state (NET). Recording can span scheduling quanta, so
  /// it must survive suspension per thread.
  bool TraceGenActive = false;
  AppPc TraceGenHead = 0;
  std::vector<AppPc> TraceGenBlocks;
  unsigned TraceGenInstrs = 0;

  /// The banked slot window: [ExitIdSlot .. ScratchSlots + 16*4), i.e.
  /// region offsets [0x10, 0x80). Holds this thread's slot contents while
  /// it is not the active one. Zero-initialized = fresh slots.
  static constexpr uint32_t WindowBytes = 0x70;
  std::array<uint8_t, WindowBytes> SlotImage{};
};

/// How the runtime drives the client's lifecycle hooks.
enum class HookMode {
  All,  ///< fire init/thread-init at construction, thread-exit/exit at end
  None, ///< an external scheduler (ThreadedRunner) fires the hooks
};

/// The result of running an application to completion under the runtime.
struct RunResult {
  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string FaultReason;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  /// This runtime's thread ended (thread_exit) though the program lives on.
  bool ThreadDone = false;
  /// runFor() exhausted its instruction budget (the thread is suspended).
  bool QuantumExpired = false;
};

/// A clean-call context handed to client callbacks (paper Section 4.3's
/// profiling routines). The callback may inspect machine state and rewrite
/// fragments through the Runtime.
struct CleanCallContext {
  Runtime &RT;
  /// Fragment the call was inserted into (tag).
  AppPc FragmentTag;
  /// For indirect-branch miss profiling: the branch target about to be
  /// looked up (contents of the IB target slot).
  AppPc ibTarget() const;
};

/// See file comment.
class Runtime {
public:
  Runtime(Machine &M, const RuntimeConfig &Config, Client *TheClient = nullptr,
          const RuntimeRegion &Region = RuntimeRegion(),
          HookMode Hooks = HookMode::All);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Runs the application (already loaded into the machine, pc at entry)
  /// to completion under the runtime.
  RunResult run();

  /// Runs at most \p MaxInstructions machine instructions, then suspends
  /// (QuantumExpired in the result) preserving all state; a later runFor or
  /// run resumes exactly where execution stopped. The scheduling primitive
  /// behind multi-threaded execution (core/ThreadedRunner).
  RunResult runFor(uint64_t MaxInstructions);

  Machine &machine() { return M; }
  const RuntimeConfig &config() const { return Config; }
  StatisticSet &stats() { return Stats; }
  const RuntimeSlots &slots() const { return Slots; }
  Client *client() { return TheClient; }

  //===--------------------------------------------------------------------===
  // Thread contexts (CacheSharing::Shared)
  //===--------------------------------------------------------------------===

  /// Makes thread \p Tid's context the active one, creating it on first
  /// use. Swaps the slot window (outgoing context's window is banked, the
  /// incoming one's restored) and charges ThreadContextSwapCost — unless
  /// \p Tid is already active, which is free. All subsequent run/runFor
  /// calls execute as this thread.
  ThreadContext &activateThread(unsigned Tid);

  /// The context run/runFor currently executes as. A single-thread Runtime
  /// always has exactly one (Tid 0), active from construction.
  ThreadContext &activeContext() { return *TC; }
  const ThreadContext &activeContext() const { return *TC; }
  size_t numThreadContexts() const { return Contexts.size(); }

  /// Relabels the active context with the real application thread id
  /// without swapping anything — what the thread-private scheduler uses,
  /// since each private Runtime has exactly one context that *is* thread
  /// \p Tid. Keeps event/sample attribution consistent with shared mode.
  void labelActiveThread(unsigned Tid) {
    TC->Tid = Tid;
    ObsTid = Tid;
  }

  //===--------------------------------------------------------------------===
  // Observability (support/EventTrace.h, support/Profile.h)
  //===--------------------------------------------------------------------===

  /// The event ring this runtime records into (RuntimeConfig::Trace); null
  /// when tracing is not attached.
  EventTrace *eventTrace() { return ObsTrace; }

  /// The sampling profiler (RuntimeConfig::Profiler); null when not
  /// attached.
  SampleProfile *profiler() { return Prof; }

  /// Records a client-defined marker event (dr_trace_event): \p LabelId is
  /// an id from eventTrace()->internLabel(). No-op without a trace.
  void noteClientEvent(uint32_t LabelId, uint32_t Value) {
    obsEvent(TraceEventKind::ClientMarker, LabelId, Value);
  }

  //===--------------------------------------------------------------------===
  // Production telemetry (support/Metrics.h)
  //===--------------------------------------------------------------------===

  /// Registers this runtime's full telemetry under source \p Source of
  /// \p MR: every interned statistic as a counter, plus machine-level
  /// counters (cycles, instructions, CoW page copies) and live gauges
  /// (private pages, cache occupancy, pending reclaim bytes, publication
  /// count, IB profile coverage, fork/freeze state). Pull-based: nothing
  /// is added to any hot path, and snapshots never charge simulated
  /// cycles. The registry must not outlive this runtime.
  void registerMetrics(MetricsRegistry &MR, uint32_t Source);

  /// Convenience: adds a source labeled \p Label to \p MR, registers this
  /// runtime into it, and returns the source id.
  uint32_t registerMetrics(MetricsRegistry &MR, const std::string &Label);

  /// The runtime's own lazily created registry — what dr_metrics_snapshot,
  /// dr_metrics_export, and dr_flight_dump read. Created on first use with
  /// this runtime registered under the label "main"; deltas are tracked
  /// across calls because the registry persists with the runtime.
  MetricsRegistry &metrics();

  /// Total arrivals recorded across every profiled indirect-branch site
  /// (the sum of all IbSiteProfile totals; defined in IbInline.cpp).
  uint64_t ibProfileArrivalsTotal() const;

  //===--------------------------------------------------------------------===
  // Fragment queries
  //===--------------------------------------------------------------------===

  Fragment *lookupFragment(AppPc Tag) { return Table.lookup(Tag); }
  /// Total fragments ever built (for tests/benches).
  size_t numFragments() const { return Fragments.size(); }

  /// Visits every live (non-doomed) fragment; used by benches and tools.
  template <typename Fn> void forEachFragment(Fn Visit) const {
    for (const auto &Frag : Fragments)
      if (!Frag->Doomed)
        Visit(*Frag);
  }

  //===--------------------------------------------------------------------===
  // Adaptive optimization extensions (paper Section 3.4)
  //===--------------------------------------------------------------------===

  /// Re-creates the InstrList of the fragment with tag \p Tag from the code
  /// cache (dr_decode_fragment). Direct exits come back as CTIs targeting
  /// application addresses; intra-fragment branches are bound to labels.
  /// Returns null if no such fragment exists. The list is allocated from
  /// \p A and remains owned by the caller.
  InstrList *decodeFragment(Arena &A, AppPc Tag);

  /// Replaces the fragment with tag \p Tag by the code in \p IL
  /// (dr_replace_fragment). All links in and out are updated immediately;
  /// the old fragment body is deleted lazily, so replacement is legal while
  /// execution is logically inside the old fragment. Returns false if no
  /// fragment with that tag exists or emission fails.
  bool replaceFragment(AppPc Tag, InstrList &IL);

  //===--------------------------------------------------------------------===
  // Versioned publication + OSR (asynchronous sideline; core/Sideline.h)
  //===--------------------------------------------------------------------===

  /// Publishes \p IL as the next *version* of the fragment with tag \p Tag
  /// (the asynchronous-sideline install path, dr_publish_fragment):
  ///   - the new body is emitted and the tag's link graph swapped to it
  ///     atomically with respect to simulated execution (this runs at a
  ///     dispatch boundary, between fragment executions);
  ///   - every thread context suspended inside the old body is
  ///     OSR-transferred where its pc translates: onto the same
  ///     instruction of the new body, or to the equivalent application pc
  ///     (Fragment::osrResumePc) so it re-enters through the dispatcher;
  ///   - the old body is retired — its bytes are reclaimed once no guard
  ///     pc (a context left in it untransferred) lies inside them.
  /// Charges SidelinePublishCost (cheaper than a synchronous replace — the
  /// transform itself happened off the critical path). Returns false if no
  /// fragment with that tag exists or emission fails.
  bool publishVersion(AppPc Tag, InstrList &IL);

  /// Versions published so far (publishVersion calls that installed a
  /// body).
  uint64_t publicationEpoch() const { return PubEpoch; }

  /// Kept only so perfbench compiles; deleted by the benchmark-change PR.
  const std::set<AppPc> &traceoptBlacklist() const {
    static const std::set<AppPc> Empty;
    return Empty;
  }

  //===--------------------------------------------------------------------===
  // Custom trace extensions (paper Section 3.5)
  //===--------------------------------------------------------------------===

  /// Marks \p Tag as a trace head (dr_mark_trace_head).
  void markTraceHead(AppPc Tag);

  /// Empties both code caches: every fragment is deleted (the client's
  /// fragment-deleted hook fires for each), all links dissolve, and the
  /// space returns to the allocator. An explicit request only: a full cache
  /// makes room by FIFO eviction instead (allocCache).
  void flushCaches();

  //===--------------------------------------------------------------------===
  // Cache consistency (dr_flush_region; self-modifying code)
  //===--------------------------------------------------------------------===

  /// Deletes every fragment whose body contains code translated from the
  /// application range [Start, Start + Size). Safe to call from a clean
  /// call while execution is logically inside an affected fragment: the
  /// fragment's bytes are reclaimed only once execution has left them.
  void flushRegion(AppPc Start, uint32_t Size);

  /// The code-cache manager (occupancy queries for benches/tests).
  CacheManager &cacheManager() { return CM; }

  //===--------------------------------------------------------------------===
  // Copy-on-write forking (defined in persist/Fork.cpp)
  //===--------------------------------------------------------------------===

  /// Freezes this runtime as a fork template: its warmed state (fragments,
  /// links, trace-head counters, IB chains, predictors) is serialized once
  /// and retained; forkFrom() clones tenants from it. Requires quiescence —
  /// no client, Cache mode, the code-write log drained, and no context
  /// suspended inside the cache. The template itself remains runnable, but
  /// the frozen image is a snapshot: freeze after warm-up, then stop
  /// mutating (tenants clone the snapshot, not live state).
  /// Returns false (with \p Error set) if the runtime cannot be frozen.
  bool freezeTemplate(std::string *Error = nullptr);
  bool isFrozenTemplate() const { return !Frozen.empty(); }

  /// Creates a tenant runtime on \p TenantMachine (which must be a
  /// Machine-copy-constructor fork of \p Template's machine). The tenant
  /// gets private registers, stack, thread context, and statistics while
  /// *sharing* the template's read-only frozen code cache, fragment table,
  /// link graph, and IB chains: its machine pages alias the template's
  /// until first write, and its fragment metadata points at the template's
  /// records. The first operation that must mutate shared cache state —
  /// SMC invalidation, eviction, a new block build, trace promotion —
  /// first deep-copies the cache region (counted in fork_cache_unshares).
  /// \p Template must be frozen (freezeTemplate). Returns null with
  /// \p Error set on failure.
  static std::unique_ptr<Runtime> forkFrom(const Runtime &Template,
                                           Machine &TenantMachine,
                                           std::string *Error = nullptr);

  /// True while this runtime still shares its template's cache (it was
  /// created by forkFrom and has not unshared).
  bool isForked() const { return Tpl != nullptr; }

  /// Re-arms the active thread context for another run() after
  /// Machine::resetForRun(): suspension and trace-recording state return
  /// to fresh, while the warmed caches, statistics, and counters are kept.
  /// The measurement primitive for steady-state (second-run) costs.
  void resetThreadForRun();

  //===--------------------------------------------------------------------===
  // Clean calls and client services
  //===--------------------------------------------------------------------===

  /// Registers a callback; returns the id to give OP_clientcall.
  uint32_t registerCleanCall(std::function<void(CleanCallContext &)> Fn);

  /// Client custom exit stubs (paper Section 3.2): attach \p Stub to the
  /// exit CTI \p ExitCti of the list currently being processed by a client
  /// hook. Effective at emission.
  void setCustomExitStub(Instr *ExitCti, InstrList *Stub,
                         bool AlwaysThroughStub);

  /// Transparent allocation for clients (dr_global_alloc): memory from the
  /// runtime's arena, never from the application.
  Arena &clientArena() { return ClientArena; }

  /// Run-cost accounting hook for tests and benches.
  uint64_t cyclesInRuntime() const { return RuntimeCycles; }

private:
  friend struct CleanCallContext;
  /// The persistent-cache serializer (src/persist/CacheImage.cpp) walks and
  /// rebuilds the private fragment/link/table state directly.
  friend class persist::CacheCodec;

  //===--- dispatch (Runtime.cpp) ------------------------------------------===
  RunResult runCached(uint64_t Deadline);
  RunResult runEmulated(uint64_t Deadline);
  RunResult finishRun(bool Quantum);
  /// Executes cache code starting at \p CachePc until control returns to
  /// the runtime. Returns the next application tag to dispatch to, or 0
  /// when the program (or quantum, or this thread) stopped.
  AppPc executeFrom(uint32_t CachePc, uint64_t Deadline);
  AppPc handleIndirectArrival(AppPc Target, AppPc SiteCachePc, AppPc &Resume);
  /// In-cache trace-head counting (exit stubs and IBL hits): charges and
  /// bumps the head counter in \p Entry. Returns true once the head is hot
  /// — counted as a context switch to the dispatcher, which re-counts it
  /// and starts trace generation.
  bool countHeadIsHot(FragmentEntry &Entry);
  void serviceCleanCall(uint32_t Id);
  void chargeRuntime(uint64_t Cycles);
  /// Rewrites a cache-pc fault reason in application terms (fragment tag).
  void annotateCacheFault(uint32_t CachePc);

  //===--- building and linking (Emitter.cpp) -------------------------------===
  Fragment *buildBasicBlock(AppPc Tag, bool Shadow = false);
  Fragment *emitFragment(AppPc Tag, InstrList &IL, Fragment::Kind Kind,
                         unsigned NumInstrs);
  void mangleForCache(InstrList &IL);
  void linkExit(Fragment *From, FragmentExit &Exit, Fragment *To);
  void unlinkExit(Fragment *Owner, FragmentExit &Exit);
  void unlinkOutgoing(Fragment *Frag);
  void unlinkIncoming(Fragment *Frag);
  void linkNewFragment(Fragment *Frag);
  /// The tail every deletion shares: drops the body's IB-arm bookkeeping,
  /// retires its slot (reclaimed once no guard pc lies in it), marks it
  /// Doomed and notifies the client.
  void retireBody(Fragment *Frag);
  /// The version swap replaceFragment and publishVersion share: emits \p IL
  /// as \p Old's successor, re-points Old's incoming links at it, severs
  /// Old's outgoing links, installs it in the table, OSR-transfers threads
  /// suspended in Old when \p Osr, retires Old and links the new body.
  /// Returns the new body, or null if emission failed.
  Fragment *supersede(Fragment *Old, InstrList &IL, bool Osr);
  /// Moves every context suspended inside \p Old onto \p New (on-stack
  /// replacement) where its pc translates; the rest keep Old's bytes
  /// alive through their guard pcs. A published body is a transparent
  /// rewrite of the same application code as the body it supersedes, so
  /// a context left on the old bytes still runs correct code: the
  /// transfer only moves it onto the newer body sooner.
  void transferSuspended(Fragment *Old, Fragment *New);
  void deleteFragment(Fragment *Frag);
  void patchRel32(uint32_t CtiAddr, unsigned CtiLen, uint32_t NewTarget);
  uint32_t allocCache(unsigned Size, Fragment::Kind Kind);
  /// Cache pc whose slot must not be reclaimed yet for the *active*
  /// context: the suspended resume point or the pc of a fragment currently
  /// servicing a clean call; 0 when no cache bytes are live-in.
  uint32_t unsafeCachePc() const;
  /// Every cache pc no reclamation may free: the active context's unsafe
  /// pc plus the resume pc of every other context suspended mid-fragment
  /// (shared-cache mode). Returns a reference to a reused buffer, valid
  /// until the next call.
  const std::vector<uint32_t> &collectGuardPcs();
  /// Consumes new machine code-write events, flushing fragments whose
  /// source code was overwritten. Returns the application pc to redirect
  /// execution to when the fragment at \p CurCachePc was flushed, else 0.
  AppPc drainCodeWrites(uint32_t CurCachePc);
  uint64_t clientTransformCost(InstrList &IL) const;

  //===--- observability (host-side only; charges no simulated cycles) ------===
  /// Records one event attributed to the active thread at the current
  /// simulated cycle. Compiles to one predictable branch when no trace is
  /// attached (and to nothing under RIO_DISABLE_TRACING).
  RIO_ALWAYS_INLINE void obsEvent(TraceEventKind Kind, uint32_t Tag,
                                  uint32_t Aux = 0) {
    RIO_TRACE(ObsTrace, M.cycles(), ObsTid, Kind, Tag, Aux);
  }
  /// Cycle-driven sampling check for the cache-execution hot loop.
  RIO_ALWAYS_INLINE void obsMaybeSample(uint32_t Pc) {
    if (RIO_UNLIKELY(Prof != nullptr) && RIO_UNLIKELY(Prof->due(M.cycles())))
      takeSample(Pc);
  }
  void takeSample(uint32_t Pc); // cold path of obsMaybeSample

  //===--- adaptive indirect-branch inline caches (IbInline.cpp) ------------===
  /// Host-side target histogram of one indirect exit site, keyed by the
  /// app pc of the source CTI so it survives eviction and rebuild of the
  /// owning fragment. Bumped for free at the IBL boundary; never charged.
  struct IbSiteProfile {
    static constexpr unsigned MaxTargets = 8;
    AppPc Targets[MaxTargets] = {};
    uint64_t Counts[MaxTargets] = {};
    uint64_t Other = 0; ///< arrivals beyond the tracked target set
    uint64_t Total = 0;
  };
  /// Profiles the arrival and, once the site is hot and skewed, rewrites
  /// the owning fragment with an inline chain. Called before the IBL
  /// lookup (the rewrite may move the target fragment).
  void ibNoteArrival(AppPc Target, uint32_t SiteCachePc);
  /// SiteCachePc was an unlinked arm's stub: if the chain arm's recorded
  /// target was just resolved by the IBL, patch the arm direct again.
  void ibMaybeRelinkArm(uint32_t SiteCachePc, AppPc Target, Fragment *To);
  /// Counts an execution of a linked chain arm (host-side, from the
  /// executeFrom loop; gated on the arm map being non-empty).
  void ibNoteArmExec(uint32_t Pc);
  /// IbArmPcs edits: each also sets or clears the machine's stop mark on
  /// the arm pc, so Machine::run() returns before every arm executes.
  void addIbArmPc(uint32_t Pc, uint32_t ExitId);
  void eraseIbArmPc(uint32_t Pc);
  void clearIbArmPcs();
  /// Rebuilds \p Owner with a check chain for \p NumTargets targets in
  /// front of indirect exit \p ExitIdx. Returns false (and poisons the
  /// exit) if the fragment cannot be decoded or re-emitted.
  bool ibRewriteSite(Fragment *Owner, unsigned ExitIdx, const AppPc *Targets,
                     unsigned NumTargets);
  /// Forgets arm bookkeeping for a fragment leaving the cache.
  void dropIbSites(Fragment *Frag);

  //===--- traces (TraceBuilder.cpp) ----------------------------------------===
  /// Maximum basic blocks stitched into one trace.
  static constexpr unsigned MaxTraceBlocks = 16;
  void noteDispatch(Fragment *Frag);
  bool inTraceGen() const { return TC->TraceGenActive; }
  void traceGenStep(AppPc NextTag);
  void finalizeTrace();
  void abortTrace();
  InstrList *buildTraceList(const std::vector<AppPc> &Blocks,
                            unsigned &NumInstrs);
  void inlineIndirectCheck(InstrList &IL, Instr *IndirectCti, AppPc NextTag,
                           InstrList &MissCode);
  /// Passes to \p Add the instructions that load the target of indirect
  /// CTI \p Cti into ecx: `mov ecx, [esp]` and a popping `lea esp` for
  /// ret and ret imm, `mov ecx, rm` for jmp* and call*.
  static void loadIndirectTarget(Arena &A, Instr &Cti,
                                 const std::function<void(Instr *)> &Add);

  Machine &M;
  RuntimeConfig Config;
  Client *TheClient;
  StatisticSet Stats;

  /// Interned handles for every hot-path counter: names are hashed once
  /// here (constructor time); each event is then a single pointer bump.
  /// Cold paths (tests, clients) still use Stats.counter("name").
  struct FlowStats {
    Stat Dispatches, ContextSwitches, IblLookups, IblHits, IblMisses,
        HeadCounterBumps, TraceHeads, CleanCalls, RegionFlushes,
        RegionFlushedFragments, SmcCodeWrites, SmcInvalidations,
        SecurityViolations, IbDispatcherReturns, CacheEvictions,
        CacheEvictedBytes, ShadowBlocksBuilt, BasicBlocksBuilt, LinksMade,
        LinksRemoved, CacheFlushes, FragmentsDeleted, FragmentsReplaced,
        TraceGenerationsStarted, TracesBuilt, TraceBlocksTotal,
        TraceBranchesInverted, TraceJmpsElided, TraceCallsInlined,
        IndirectBranchesInlined, ThreadContextSwaps, IbInlineHits,
        IbInlineMisses, IbInlineRewrites, IbInlineChainEvictions,
        IbInlineArmRelinks, IbInlineFlagPairsElided, IbInlineSpillsCollapsed,
        CacheWarmHits, CacheWarmRejects, PersistBytesWritten,
        ForkCacheUnshares;

    explicit FlowStats(StatisticSet &S);
  };
  FlowStats S;

  RuntimeSlots Slots{};
  /// The region this runtime was given, with defaults resolved — what a
  /// forked tenant replays to get an identical cache layout.
  RuntimeRegion ResolvedRegion{};

  Arena FragArena{1u << 16};   ///< fragment metadata + build-time lists
  Arena ClientArena{1u << 16}; ///< dr_global_alloc backing store

  /// Tag -> {fragment, trace-head counter, marked bit}: one flat
  /// open-addressing table on the dispatcher/IBL hot path (replaces the
  /// seed's three node-based maps Table / HeadCounters / MarkedHeads).
  FragmentTable Table;
  /// Per-tag basic blocks used while recording a trace whose path crosses
  /// an existing trace: trace generation must observe individual blocks,
  /// so trace fragments are shadowed by plain blocks during recording.
  std::unordered_map<AppPc, Fragment *> ShadowBbs;
  std::vector<std::unique_ptr<Fragment>> Fragments;
  std::vector<std::pair<Fragment *, unsigned>> ExitRecords;

  /// Owns the bb/trace cache ranges: allocation, eviction order, deferred
  /// reclamation, and the app-range index for consistency invalidation.
  CacheManager CM;

  /// Cursor into the machine's append-only code-write log (the machine may
  /// be shared by several runtimes, each consuming independently).
  size_t CodeWriteCursor = 0;

  /// Set while a clean-call callback runs: the calling fragment's bytes are
  /// live-in even though the machine pc temporarily looks runtime-internal.
  /// Transient (clean calls never span a suspension), so not per-context.
  bool InCleanCall = false;

  // Custom stub registrations (valid between a client hook and emission).
  struct CustomStub {
    Instr *ExitCti;
    InstrList *Stub;
    bool AlwaysThrough;
  };
  std::vector<CustomStub> PendingCustomStubs;

  std::vector<std::function<void(CleanCallContext &)>> CleanCalls;

  uint64_t RuntimeCycles = 0;
  /// Versions published (publishVersion); see publicationEpoch().
  uint64_t PubEpoch = 0;
  bool ClientInitDone = false;
  HookMode Hooks = HookMode::All;

  /// Observability sinks (from RuntimeConfig; null = not attached) and the
  /// thread id events/samples are attributed to. ObsTid mirrors TC->Tid
  /// (kept in sync by activateThread / labelActiveThread) and has a stable
  /// address the CacheManager reads for its own events.
  EventTrace *ObsTrace = nullptr;
  SampleProfile *Prof = nullptr;
  unsigned ObsTid = 0;

  /// Lazily created self-registry behind metrics() (and the dr_metrics_*
  /// API). Pointer so support/Metrics.h stays out of this header.
  std::unique_ptr<MetricsRegistry> SelfMetrics;

  /// Thread contexts, indexed by tid. A thread-private Runtime only ever
  /// has [0]; a shared Runtime grows one per application thread as the
  /// scheduler activates them.
  std::vector<std::unique_ptr<ThreadContext>> Contexts;
  /// The active context (never null). All per-thread state — suspension,
  /// trace recording, the current fragment tag — is read through this.
  ThreadContext *TC = nullptr;
  /// Reused buffer for collectGuardPcs().
  std::vector<uint32_t> GuardBuf;

  /// Adaptive indirect-branch inlining is live for this run (config knob
  /// plus the modes it needs). All hot-path hooks gate on this so the
  /// feature off means zero behavior difference, host or simulated.
  bool IbOn = false;
  /// Site histograms, keyed by source-CTI app pc (see IbSiteProfile).
  std::unordered_map<AppPc, IbSiteProfile> IbProfiles;
  /// Arm stub jmp pc -> exit record id: how an IBL arrival is recognized
  /// as coming from an unlinked chain arm (relink probe).
  std::unordered_map<uint32_t, uint32_t> IbArmStubSites;
  /// Arm CTI pc -> exit record id: linked-arm hit counting from the
  /// execution loop. Empty whenever the feature is off. Every key is a
  /// stop pc of the machine; edit through addIbArmPc/eraseIbArmPc.
  std::unordered_map<uint32_t, uint32_t> IbArmPcs;

  //===--- copy-on-write forking (persist/Fork.cpp) --------------------------===

  /// Non-null while this runtime is a forked tenant sharing its template's
  /// frozen cache: the tenant's Fragment pointers and cache bytes belong to
  /// the template, and its own CM/Fragments/ExitRecords are empty. Cleared
  /// by the unshare (after which everything is tenant-private).
  const Runtime *Tpl = nullptr;

  /// Deep-copies the shared cache state into this runtime. Installed by
  /// forkFrom; implemented in rio_persist (it replays the template's
  /// frozen image through the cache codec), reached through a function
  /// pointer because rio_core cannot link against rio_persist.
  void (*UnshareHook)(Runtime &) = nullptr;

  /// The unshare engine behind UnshareHook (persist/Fork.cpp). A static
  /// member rather than a free function so it can reach private state while
  /// being compiled into rio_persist.
  static void unshareImpl(Runtime &RT);

  /// The serialized warmed state (set on the template by freezeTemplate);
  /// the unshare clones from here.
  std::vector<uint8_t> Frozen;

  /// The cache manager to answer *const* queries from: a forked tenant
  /// reads the template's (its own is empty until it unshares).
  const CacheManager &queryCM() const { return Tpl ? Tpl->CM : CM; }

  /// Guards every path that mutates cache bytes, fragment records, or the
  /// link graph: a forked tenant must own private copies first. No-op
  /// (one predicted branch) for non-forked runtimes.
  RIO_ALWAYS_INLINE void ensureUnshared() {
    if (RIO_UNLIKELY(Tpl != nullptr))
      UnshareHook(*this);
  }
};

} // namespace rio

#endif // RIO_CORE_RUNTIME_H
