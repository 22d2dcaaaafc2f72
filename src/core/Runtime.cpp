//===- core/Runtime.cpp - Dispatcher and execution engine -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Sideline.h"
#include "support/Compiler.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace rio;

Client::~Client() = default;

AppPc CleanCallContext::ibTarget() const {
  uint32_t Value = 0;
  RT.machine().mem().read32(RT.slots().IbTargetSlot, Value);
  return Value;
}

Runtime::FlowStats::FlowStats(StatisticSet &S)
    : Dispatches(S.stat("dispatches")),
      ContextSwitches(S.stat("context_switches")),
      IblLookups(S.stat("ibl_lookups")), IblHits(S.stat("ibl_hits")),
      IblMisses(S.stat("ibl_misses")),
      HeadCounterBumps(S.stat("head_counter_bumps")),
      TraceHeads(S.stat("trace_heads")), CleanCalls(S.stat("clean_calls")),
      RegionFlushes(S.stat("region_flushes")),
      RegionFlushedFragments(S.stat("region_flushed_fragments")),
      SmcCodeWrites(S.stat("smc_code_writes")),
      SmcInvalidations(S.stat("smc_invalidations")),
      SecurityViolations(S.stat("security_violations_enforced")),
      IbDispatcherReturns(S.stat("ib_dispatcher_returns")),
      CacheEvictions(S.stat("cache_evictions")),
      CacheEvictedBytes(S.stat("cache_evicted_bytes")),
      ShadowBlocksBuilt(S.stat("shadow_blocks_built")),
      BasicBlocksBuilt(S.stat("basic_blocks_built")),
      LinksMade(S.stat("links_made")), LinksRemoved(S.stat("links_removed")),
      CacheFlushes(S.stat("cache_flushes")),
      FragmentsDeleted(S.stat("fragments_deleted")),
      FragmentsReplaced(S.stat("fragments_replaced")),
      TraceGenerationsStarted(S.stat("trace_generations_started")),
      TracesBuilt(S.stat("traces_built")),
      TraceBlocksTotal(S.stat("trace_blocks_total")),
      TraceBranchesInverted(S.stat("trace_branches_inverted")),
      TraceJmpsElided(S.stat("trace_jmps_elided")),
      TraceCallsInlined(S.stat("trace_calls_inlined")),
      IndirectBranchesInlined(S.stat("indirect_branches_inlined")),
      ThreadContextSwaps(S.stat("thread_context_swaps")),
      IbInlineHits(S.stat("ib_inline_hits")),
      IbInlineMisses(S.stat("ib_inline_misses")),
      IbInlineRewrites(S.stat("ib_inline_rewrites")),
      IbInlineChainEvictions(S.stat("ib_inline_chain_evictions")),
      IbInlineArmRelinks(S.stat("ib_inline_arm_relinks")),
      IbInlineFlagPairsElided(S.stat("ib_inline_flag_pairs_elided")),
      IbInlineSpillsCollapsed(S.stat("ib_inline_spills_collapsed")),
      CacheWarmHits(S.stat("cache_warm_hits")),
      CacheWarmRejects(S.stat("cache_warm_rejects")),
      PersistBytesWritten(S.stat("persist_bytes_written")),
      ForkCacheUnshares(S.stat("fork_cache_unshares")) {}

Runtime::Runtime(Machine &M, const RuntimeConfig &Config, Client *TheClient,
                 const RuntimeRegion &Region, HookMode Hooks)
    : M(M), Config(Config), TheClient(TheClient), S(Stats),
      CM(M, Stats, Config.Mode == ExecMode::Cache),
      Hooks(Hooks) {
  uint32_t Base = Region.Base ? Region.Base : M.runtimeBase();
  uint32_t Size = Region.Size
                      ? Region.Size
                      : (M.runtimeBase() + M.config().RuntimeRegionSize - Base);
  assert(Base >= M.runtimeBase() && Size > 0x2000 &&
         "runtime region must lie inside the machine's runtime region");
  ResolvedRegion = {Base, Size}; // replayed verbatim by forkFrom
  Slots.DispatcherEntry = Base + 0x00;
  Slots.ExitIdSlot = Base + 0x10;
  Slots.IbTargetSlot = Base + 0x14;
  Slots.FlagsSlot = Base + 0x18;
  Slots.ClientTlsSlot = Base + 0x1C;
  Slots.SpillSlots = Base + 0x20;   // 8 x 4 bytes
  Slots.ScratchSlots = Base + 0x40; // 16 x 4 bytes
  Stubs = ExitStubs(Slots);

  // Thread-private basic-block cache in the lower part of the remaining
  // region, trace cache above it. Capacities default to an even split; the
  // RuntimeConfig knobs bound either cache explicitly (values are clamped
  // so both caches keep at least a minimal range).
  uint32_t CacheStart = Base + 0x1000;
  uint32_t CacheBytes = Size - 0x1000;
  uint32_t BbBytes =
      this->Config.BbCacheSize ? this->Config.BbCacheSize : CacheBytes / 2;
  BbBytes = std::min(BbBytes, CacheBytes - 1024);
  BbBytes = std::max(BbBytes, 256u) & ~3u;
  uint32_t TraceBytes = this->Config.TraceCacheSize ? this->Config.TraceCacheSize
                                                    : CacheBytes - BbBytes;
  TraceBytes = std::max(std::min(TraceBytes, CacheBytes - BbBytes), 256u) & ~3u;
  CM.configureCache(Fragment::Kind::BasicBlock, CacheStart,
                    CacheStart + BbBytes);
  CM.configureCache(Fragment::Kind::Trace, CacheStart + BbBytes,
                    CacheStart + BbBytes + TraceBytes);

  // Thread 0's context exists (and is active) from the start; a shared
  // Runtime grows more as the scheduler activates other threads.
  Contexts.emplace_back(new ThreadContext(0));
  TC = Contexts.front().get();

  // Observability sinks ride in on the config (one shared ring/profile for
  // every runtime built from it). The cache manager records its reclaim
  // events itself, attributed to whichever thread is active here.
  ObsTrace = this->Config.Trace;
  Prof = this->Config.Profiler;
  CM.attachTrace(ObsTrace, &ObsTid);

  // Adaptive indirect-branch inlining needs the cache, the IBL (misses are
  // resolved by lookup, and unlinked arms re-route through it) and direct
  // linking (chain arms *are* direct links). Everything the feature does is
  // gated on this flag so leaving it off changes nothing, host or guest.
  IbOn = this->Config.IbInline && this->Config.Mode == ExecMode::Cache &&
         this->Config.LinkIndirectBranches && this->Config.LinkDirectBranches;

  if (TheClient && Hooks == HookMode::All) {
    TheClient->onInit(*this);
    TheClient->onThreadInit(*this);
    ClientInitDone = true;
  }
}

Runtime::~Runtime() = default;

void Runtime::chargeRuntime(uint64_t Cycles) {
  M.chargeCycles(Cycles);
  RuntimeCycles += Cycles;
}

ThreadContext &Runtime::activateThread(unsigned Tid) {
  while (Contexts.size() <= Tid)
    Contexts.emplace_back(new ThreadContext(unsigned(Contexts.size())));
  ThreadContext *Next = Contexts[Tid].get();
  if (Next == TC)
    return *Next; // already active: no swap, no cost
  // Bank the outgoing thread's slot window and restore the incoming one's.
  // Emitted code addresses the slots absolutely, so this swap is what makes
  // one shared cache correct for every thread (the simulated analogue of
  // re-pointing a TLS segment base on an OS context switch).
  M.mem().readBlock(Slots.ExitIdSlot, TC->SlotImage.data(),
                    ThreadContext::WindowBytes);
  M.mem().writeBlock(Slots.ExitIdSlot, Next->SlotImage.data(),
                     ThreadContext::WindowBytes);
  chargeRuntime(M.cost().ThreadContextSwapCost);
  ++S.ThreadContextSwaps;
  unsigned PrevTid = TC->Tid;
  TC = Next;
  ObsTid = Next->Tid;
  obsEvent(TraceEventKind::ContextSwapped, PrevTid, Next->Tid);
  return *Next;
}

void Runtime::resetThreadForRun() {
  TC->ResumePoint = ThreadContext::Resume::Fresh;
  TC->ResumeTag = 0;
  TC->ResumeCachePc = 0;
  TC->ThreadFinished = false;
  TC->LastTransitionBackwardBranch = false;
  TC->CurrentFragmentTag = 0;
  TC->TraceGenActive = false;
  TC->TraceGenHead = 0;
  TC->TraceGenBlocks.clear();
  TC->TraceGenInstrs = 0;
}

void Runtime::registerMetrics(MetricsRegistry &MR, uint32_t Source) {
  // Everything below is read-only pulls at snapshot time: no counter here
  // adds a single instruction to dispatch, emission, or cache execution,
  // which is what keeps metered runs cycle-identical to unmetered ones.
  MR.addCounters(Source, &Stats);
  MR.addCounter(Source, "cycles", [this] { return M.cycles(); });
  MR.addCounter(Source, "instructions",
                [this] { return M.instructionsExecuted(); });
  MR.addCounter(Source, "cow_page_copies",
                [this] { return M.mem().cowPageCopies(); });
  MR.addGauge(Source, "private_pages",
              [this] { return uint64_t(M.mem().privatePages()); });
  // Cache occupancy reads through queryCM() so a still-shared forked
  // tenant reports the template cache it actually executes from.
  MR.addGauge(Source, "cache_used_bytes",
              [this] { return uint64_t(queryCM().totalUsedBytes()); });
  MR.addGauge(Source, "cache_pending_reclaim_bytes", [this] {
    const CacheManager &Q = queryCM();
    return uint64_t(Q.pendingReclaimBytes(Fragment::Kind::BasicBlock)) +
           Q.pendingReclaimBytes(Fragment::Kind::Trace);
  });
  MR.addGauge(Source, "cache_live_fragments", [this] {
    const CacheManager &Q = queryCM();
    return uint64_t(Q.liveFragments(Fragment::Kind::BasicBlock)) +
           Q.liveFragments(Fragment::Kind::Trace);
  });
  MR.addCounter(Source, "publication_epoch", [this] { return PubEpoch; });
  MR.addGauge(Source, "ib_profiled_sites",
              [this] { return uint64_t(IbProfiles.size()); });
  MR.addCounter(Source, "ib_profile_arrivals",
                [this] { return ibProfileArrivalsTotal(); });
  MR.addGauge(Source, "frozen_template_bytes",
              [this] { return uint64_t(Frozen.size()); });
  MR.addGauge(Source, "fork_shared_cache",
              [this] { return uint64_t(isForked() ? 1 : 0); });
  // Fleet-level distributions: the profiler is typically shared by every
  // runtime built from one config, and addHistogram is idempotent per
  // name, so each runtime may register it blindly.
  if (Prof) {
    MR.addHistogram("fragment_size_bytes", &Prof->FragmentSizes);
    MR.addHistogram("trace_length_blocks", &Prof->TraceLengths);
    MR.addHistogram("eviction_age_cycles", &Prof->EvictionAges);
  }
}

uint32_t Runtime::registerMetrics(MetricsRegistry &MR,
                                  const std::string &Label) {
  uint32_t Source = MR.addSource(Label);
  registerMetrics(MR, Source);
  return Source;
}

MetricsRegistry &Runtime::metrics() {
  if (!SelfMetrics) {
    SelfMetrics.reset(new MetricsRegistry());
    registerMetrics(*SelfMetrics, "main");
  }
  return *SelfMetrics;
}

const std::vector<uint32_t> &Runtime::collectGuardPcs() {
  GuardBuf.clear();
  if (uint32_t Pc = unsafeCachePc())
    GuardBuf.push_back(Pc);
  for (const auto &Ctx : Contexts)
    if (Ctx.get() != TC && Ctx->ResumePoint == ThreadContext::Resume::InCache)
      GuardBuf.push_back(Ctx->ResumeCachePc);
  return GuardBuf;
}

void Runtime::markTraceHead(AppPc Tag) {
  // A first marking of a live non-trace fragment mutates the fragment and
  // unlinks its incoming exits — shared state for a forked tenant. (Marked
  // bits and head counters live in the tenant's private table, so plain
  // re-marks and counter bumps never unshare.)
  if (Tpl) {
    Fragment *Frag = Table.lookup(Tag);
    if (Frag && !Frag->isTrace() && !Frag->IsTraceHead)
      ensureUnshared(); // rebuilds Table; re-probe below
  }
  FragmentEntry &Entry = Table.slot(Tag);
  bool WasMarked = Entry.Marked;
  Entry.Marked = true;
  if (!WasMarked)
    obsEvent(TraceEventKind::TraceHeadMarked, Tag);
  // The marked bit outlives the fragment (deletion, eviction, rebuild) and
  // in shared-cache mode is visible to every thread, so it is the one
  // source of truth for "this head has been counted": with traces enabled
  // a live non-trace fragment under a marked tag is always promoted
  // already (buildBasicBlock promotes at build time), meaning a re-mark —
  // from any thread — can never reach the counting path below.
  assert((!WasMarked || !Config.EnableTraces || !Entry.Frag ||
          Entry.Frag->isTrace() || Entry.Frag->IsTraceHead) &&
         "re-marked trace head was never promoted: would double-count");
  if (Fragment *Frag = Entry.Frag) {
    if (!Frag->isTrace() && !Frag->IsTraceHead) {
      Frag->IsTraceHead = true;
      // Future executions must pass through the dispatcher to be counted.
      unlinkIncoming(Frag);
      // Only a first marking counts: a tag marked before this fragment
      // existed (traces off, or marked via dr_mark_trace_head and then
      // built) was already counted then.
      if (!WasMarked)
        ++S.TraceHeads;
    }
  } else if (!WasMarked) {
    // Count a fragment-less tag only on its first marking: re-marks (every
    // backward branch to a not-yet-built target re-marks it) are no-ops.
    ++S.TraceHeads;
  }
}

uint32_t Runtime::registerCleanCall(std::function<void(CleanCallContext &)> Fn) {
  CleanCalls.push_back(std::move(Fn));
  return uint32_t(CleanCalls.size() - 1);
}

void Runtime::serviceCleanCall(uint32_t Id) {
  ++S.CleanCalls;
  chargeRuntime(M.cost().CleanCallCost);
  if (Id >= CleanCalls.size()) {
    M.fault("clean call with unregistered id " + std::to_string(Id));
    return;
  }
  CleanCallContext Ctx{*this, TC->CurrentFragmentTag};
  // While the callback runs, the calling fragment's cache bytes are live-in
  // even though the machine pc looks runtime-internal; flushes the callback
  // triggers (dr_flush_region) must not reclaim them yet.
  bool Prev = InCleanCall;
  InCleanCall = true;
  CleanCalls[Id](Ctx);
  InCleanCall = Prev;
}

uint32_t Runtime::unsafeCachePc() const {
  if (InCleanCall)
    return M.cpu().Pc;
  if (TC->ResumePoint == ThreadContext::Resume::InCache)
    return TC->ResumeCachePc;
  return 0;
}

//===----------------------------------------------------------------------===//
// Cache consistency (dr_flush_region; self-modifying code)
//===----------------------------------------------------------------------===//

void Runtime::flushRegion(AppPc Start, uint32_t Size) {
  ++S.RegionFlushes;
  obsEvent(TraceEventKind::RegionFlushed, Start, Size);
  chargeRuntime(M.cost().RegionFlushCost);
  if (Size == 0)
    return;
  std::vector<Fragment *> Victims;
  queryCM().fragmentsOverlappingApp(Start, Start + Size, Victims);
  if (Tpl && !Victims.empty()) {
    // Deleting fragments mutates the shared cache: take a private copy,
    // then re-collect the victims from it (same tags, private records).
    ensureUnshared();
    Victims.clear();
    CM.fragmentsOverlappingApp(Start, Start + Size, Victims);
  }
  for (Fragment *Victim : Victims) {
    ++S.RegionFlushedFragments;
    chargeRuntime(M.cost().FragmentEvictCost);
    deleteFragment(Victim);
  }
}

AppPc Runtime::drainCodeWrites(uint32_t CurCachePc) {
  const auto &Log = M.codeWriteLog();
  if (Tpl) {
    // Peek — without advancing the cursor or counting events — for a write
    // that invalidates a shared fragment; unshare first so the normal loop
    // below runs exactly as it would cold (the unshare restores the cursor
    // so no event is skipped or double-counted).
    for (size_t I = CodeWriteCursor; I < Log.size(); ++I)
      if (queryCM().anyFragmentTouchesApp(Log[I].Lo, Log[I].Hi)) {
        ensureUnshared();
        break;
      }
  }
  std::vector<Fragment *> Victims;
  while (CodeWriteCursor < Log.size()) {
    const Machine::CodeWriteEvent &Ev = Log[CodeWriteCursor++];
    ++S.SmcCodeWrites;
    CM.fragmentsOverlappingApp(Ev.Lo, Ev.Hi, Victims);
  }
  if (Victims.empty())
    return 0;

  // If the store came from inside one of the victims, translate the
  // about-to-execute cache pc back to its application pc so dispatch can
  // re-translate from the freshly written code. When the pc has no exact
  // application equivalent (mid-mangle synthetic code, or a body
  // re-emitted from decodeFragment, whose code map holds its
  // predecessor's cache pcs), fall back to running the stale — intact —
  // bytes until the next exit: the fragment is already unlinked, so
  // control reaches the dispatcher, and the slot is not reclaimed while
  // execution can still be inside it.
  Fragment *Cur = CM.fragmentAt(CurCachePc);
  AppPc Redirect = 0;
  chargeRuntime(M.cost().RegionFlushCost);
  for (Fragment *Victim : Victims) {
    if (Victim == Cur) {
      Redirect = Victim->appPcAt(CurCachePc - Victim->CacheAddr);
      if (Redirect >= M.runtimeBase())
        Redirect = 0;
    }
    ++S.SmcInvalidations;
    obsEvent(TraceEventKind::SmcInvalidated, Victim->Tag, Victim->CacheAddr);
    chargeRuntime(M.cost().FragmentEvictCost);
    deleteFragment(Victim);
  }
  if (Redirect && inTraceGen())
    abortTrace(); // the recorded path just became stale
  return Redirect;
}

void Runtime::setCustomExitStub(Instr *ExitCti, InstrList *Stub,
                                bool AlwaysThroughStub) {
  PendingCustomStubs.push_back({ExitCti, Stub, AlwaysThroughStub});
}

//===----------------------------------------------------------------------===//
// Top-level run loops
//===----------------------------------------------------------------------===//

RunResult Runtime::run() { return runFor(~0ull); }

RunResult Runtime::runFor(uint64_t MaxInstructions) {
  uint64_t Deadline = M.instructionsExecuted() >= ~0ull - MaxInstructions
                          ? ~0ull
                          : M.instructionsExecuted() + MaxInstructions;
  RunResult Result;
  if (TC->ThreadFinished) {
    Result = finishRun(/*Quantum=*/false);
  } else if (Config.Mode == ExecMode::Emulate) {
    Result = runEmulated(Deadline);
  } else {
    Result = runCached(Deadline);
  }
  if (TheClient && ClientInitDone && !Result.QuantumExpired) {
    TheClient->onThreadExit(*this);
    TheClient->onExit(*this);
    ClientInitDone = false;
  }
  return Result;
}

RunResult Runtime::finishRun(bool Quantum) {
  RunResult Result;
  Result.Status = M.status();
  Result.ExitCode = M.exitCode();
  Result.FaultReason = M.faultReason();
  Result.Cycles = M.cycles();
  Result.Instructions = M.instructionsExecuted();
  Result.ThreadDone = TC->ThreadFinished;
  Result.QuantumExpired = Quantum && M.status() == RunStatus::Running &&
                          !TC->ThreadFinished;
  return Result;
}

RunResult Runtime::runEmulated(uint64_t Deadline) {
  // Pure interpretation: the Table 1 baseline. Every application
  // instruction pays the emulation dispatch overhead, an instruction that
  // faulted before it ran included. The machine runs whole runs up to the
  // deadline, and the overhead is charged when it returns: no instruction
  // reads the cycle clock, so the total is what charging before each
  // instruction gave.
  const unsigned Overhead = M.cost().EmulateOverhead;
  StopSet Stops;
  Stops.InstrLimit = Deadline;
  while (M.status() == RunStatus::Running) {
    if (M.instructionsExecuted() >= Deadline)
      return finishRun(/*Quantum=*/true);
    const uint64_t Before = M.instructionsExecuted();
    StepResult Step = M.run(Stops);
    chargeRuntime(Overhead * (M.instructionsExecuted() - Before +
                              (M.faultedBeforeInstruction() ? 1 : 0)));
    if (Step.Kind == StepKind::ClientCall)
      M.fault("clientcall executed under emulation");
    if (Step.Kind == StepKind::ThreadExited) {
      TC->ThreadFinished = true;
      break;
    }
  }
  return finishRun(/*Quantum=*/false);
}

RunResult Runtime::runCached(uint64_t Deadline) {
  AppPc Target = 0;
  switch (TC->ResumePoint) {
  case ThreadContext::Resume::Fresh:
    Target = M.cpu().Pc;
    break;
  case ThreadContext::Resume::AtDispatcher:
    Target = TC->ResumeTag;
    break;
  case ThreadContext::Resume::InCache:
    Target = executeFrom(TC->ResumeCachePc, Deadline);
    if (Target == 0) {
      if (TC->ResumePoint == ThreadContext::Resume::InCache &&
          M.status() == RunStatus::Running && !TC->ThreadFinished)
        return finishRun(/*Quantum=*/true);
      if (inTraceGen())
        abortTrace();
      return finishRun(/*Quantum=*/false);
    }
    break;
  }
  TC->ResumePoint = ThreadContext::Resume::Fresh;

  while (M.status() == RunStatus::Running) {
    if (M.instructionsExecuted() >= Deadline) {
      TC->ResumePoint = ThreadContext::Resume::AtDispatcher;
      TC->ResumeTag = Target;
      return finishRun(/*Quantum=*/true);
    }
    // Dispatch boundary = async-sideline publication point: no cache pc is
    // live-in for this thread, so finished re-optimizations can be
    // published before the next lookup.
    if (RIO_UNLIKELY(Config.SidelinePump != nullptr))
      Config.SidelinePump->pump(*this);
    Fragment *Frag = lookupFragment(Target);
    if (!Frag)
      Frag = buildBasicBlock(Target);
    if (!Frag)
      break; // buildBasicBlock faulted the machine
    if (inTraceGen() && Frag->isTrace()) {
      // Trace recording needs block-by-block control flow; run a shadow
      // basic block instead of the trace that shadows this tag.
      auto It = ShadowBbs.find(Target);
      Frag = It != ShadowBbs.end() ? It->second
                                   : buildBasicBlock(Target, /*Shadow=*/true);
      if (!Frag)
        break;
    }
    const bool WasShared = Tpl != nullptr;
    noteDispatch(Frag);
    // Trace finalization may have replaced the fragment under this tag;
    // trace generation may also have just ended (making the shadowed trace
    // runnable again) or begun (requiring a shadow block); and any build
    // above may have triggered a full cache flush. Re-resolve, rebuilding
    // if a flush took this tag with it.
    if (!inTraceGen()) {
      Frag = lookupFragment(Target);
      if (!Frag)
        Frag = buildBasicBlock(Target);
      if (!Frag)
        break; // faulted
    } else if (WasShared && Tpl == nullptr) {
      // noteDispatch just entered trace generation and unshared the
      // template cache: the table was rebuilt with private fragments, so
      // the pointer fetched above is stale.
      Frag = lookupFragment(Target);
      if (!Frag)
        break;
    }
    ++S.Dispatches;
    chargeRuntime(M.cost().DispatchCost);
    if (inTraceGen())
      unlinkOutgoing(Frag); // record every block transition at the dispatcher
    TC->CurrentFragmentTag = Frag->Tag;
    Target = executeFrom(Frag->CacheAddr, Deadline);
    if (Target == 0) {
      if (TC->ResumePoint == ThreadContext::Resume::InCache &&
          M.status() == RunStatus::Running && !TC->ThreadFinished)
        return finishRun(/*Quantum=*/true);
      break;
    }
  }
  if (inTraceGen())
    abortTrace();
  return finishRun(/*Quantum=*/false);
}

//===----------------------------------------------------------------------===//
// Cache execution
//===----------------------------------------------------------------------===//

AppPc Runtime::executeFrom(uint32_t CachePc, uint64_t Deadline) {
  M.cpu().Pc = CachePc;
  // The machine runs cache code on its own until the runtime has something
  // to do: the dispatcher entry, an IBL arrival (a pc below the runtime
  // region), the deadline, the next sample, a store into watched code, a
  // stop-marked inline-chain arm, or a step that is not Ok. The loop below
  // services each of them before the instruction at which run() stopped.
  StopSet Stops;
  Stops.InstrLimit = Deadline;
  Stops.StopPc = Slots.DispatcherEntry;
  Stops.LowPc = M.runtimeBase();
  for (;;) {
    AppPc Pc = M.cpu().Pc;

    // Cycle-driven sampling (host-side; charges nothing). One predictable
    // branch when no profiler is attached.
    obsMaybeSample(Pc);

    // A quantum expiring exactly at a fragment-exit boundary must not
    // suspend on the dispatcher-entry pc itself: resolving the arrival
    // first (the handler below executes no guest instructions) lets the
    // dispatch loop suspend AtDispatcher with an application-level resume
    // tag — the quiescent point persistent cache saves require.
    if (Pc != Slots.DispatcherEntry && M.instructionsExecuted() >= Deadline) {
      // Quantum expired mid-cache: suspend right here.
      TC->ResumePoint = ThreadContext::Resume::InCache;
      TC->ResumeCachePc = Pc;
      return 0;
    }

    // Linked inline-chain arm about to execute: count the hit (host-side
    // bookkeeping; the simulated cost is just the chain code itself). Arm
    // pcs are stop-marked, so run() hands each one back here. The map is
    // only ever populated with the feature on.
    if (RIO_UNLIKELY(!IbArmPcs.empty()))
      ibNoteArmExec(Pc);

    if (Pc == Slots.DispatcherEntry) {
      // An exit stub recorded its id and transferred to us.
      uint32_t ExitId = 0;
      M.mem().read32(Slots.ExitIdSlot, ExitId);
      if (ExitId >= ExitRecords.size()) {
        M.fault("stub recorded bad exit id");
        return 0;
      }
      auto [Owner, ExitIdx] = ExitRecords[ExitId];
      FragmentExit &Exit = Owner->Exits[ExitIdx];
      assert(Exit.ExitKind == FragmentExit::Kind::Direct &&
             "indirect exits do not use stubs");
      AppPc Target = Exit.TargetTag;

      TC->LastTransitionBackwardBranch =
          Exit.SourceAppPc != 0 && Target <= Exit.SourceAppPc;

      // Trace-head discovery: targets of backward branches and targets of
      // trace exits become trace heads (the NET heuristic, Section 3.5).
      if (Config.EnableTraces && !inTraceGen()) {
        if (Exit.SourceAppPc && Target <= Exit.SourceAppPc)
          markTraceHead(Target);
        else if (Owner->isTrace())
          markTraceHead(Target);
      }

      // One flat-table probe serves the fragment pointer, head counter and
      // marked bit together (the seed probed three node-based maps here).
      FragmentEntry &Entry = Table.slot(Target);
      Fragment *To = Entry.Frag;

      // Exits to trace heads do not link; instead the stub increments the
      // head's execution counter and jumps straight on to the head
      // fragment — a few cycles, not a context switch (DynamoRIO keeps the
      // counter bump inside the stub). Only a hot counter surfaces to the
      // dispatcher, to enter trace generation mode.
      if (To && Config.EnableTraces && !inTraceGen() && To->IsTraceHead &&
          !To->isTrace()) {
        if (countHeadIsHot(Entry))
          return Target;
        M.cpu().Pc = To->CacheAddr;
        continue;
      }

      // Full context switch back to the dispatcher.
      ++S.ContextSwitches;
      chargeRuntime(M.cost().ContextSwitchCost);

      // Lazy linking: if the target fragment exists now, wire the exit up
      // so future executions bypass this context switch. Making a link
      // patches cache bytes, so a forked tenant first takes its private
      // copy — and since that (or the markTraceHead above) rebuilds
      // ExitRecords and the table, re-resolve the records before linking.
      if (Config.LinkDirectBranches && !Owner->Doomed && To &&
          !(To->IsTraceHead && Config.EnableTraces && !To->isTrace())) {
        ensureUnshared();
        auto [LinkOwner, LinkIdx] = ExitRecords[ExitId];
        Fragment *LinkTo = Table.slot(Target).Frag;
        if (!LinkOwner->Doomed && LinkTo)
          linkExit(LinkOwner, LinkOwner->Exits[LinkIdx], LinkTo);
      }
      return Target;
    }

    if (!M.inRuntimeRegion(Pc)) {
      // An indirect branch executed in the cache resolved to an application
      // address: this is the indirect-branch lookup moment.
      AppPc SiteCachePc = M.lastPc();
      AppPc Resume = 0;
      AppPc Next = handleIndirectArrival(Pc, SiteCachePc, Resume);
      if (Next != 0)
        return Next; // context switch to the dispatcher
      if (M.status() != RunStatus::Running)
        return 0;
      M.cpu().Pc = Resume; // IBL hit: continue inside the cache
      continue;
    }

    Stops.CycleLimit = Prof ? Prof->nextAt() : ~0ull;
    Stops.CodeWriteCursor = CodeWriteCursor;
    StepResult Step = M.run(Stops);
    switch (Step.Kind) {
    case StepKind::Ok:
    case StepKind::ThreadSpawned:
      // Cache consistency: if the last instruction stored into application
      // code backing live fragments, flush them before executing another
      // instruction — and if the current fragment was hit, context-switch
      // out so dispatch re-translates the new code.
      if (CodeWriteCursor < M.codeWriteLog().size()) {
        if (AppPc Redirect = drainCodeWrites(M.cpu().Pc)) {
          ++S.ContextSwitches;
          chargeRuntime(M.cost().ContextSwitchCost);
          return Redirect;
        }
        if (M.status() != RunStatus::Running)
          return 0;
      }
      break;
    case StepKind::ClientCall:
      serviceCleanCall(Step.ClientCallId);
      if (M.status() != RunStatus::Running)
        return 0;
      break;
    case StepKind::ThreadExited:
      TC->ThreadFinished = true;
      return 0;
    case StepKind::Faulted:
      // The fault happened inside cache code; report it in application
      // terms, as DynamoRIO's transparent fault delivery does: identify
      // the fragment (hence the original code) the faulting pc belongs to.
      annotateCacheFault(M.lastPc());
      return 0;
    case StepKind::Exited:
      return 0;
    }
  }
}

void Runtime::annotateCacheFault(uint32_t CachePc) {
  // The cache manager's slot map resolves the pc in O(log slots) — the
  // seed scanned every fragment ever built. A forked tenant resolves
  // against its template's manager until it unshares.
  Fragment *Frag = queryCM().fragmentAt(CachePc);
  if (!Frag || Frag->Doomed)
    return;
  if (CachePc < Frag->CacheAddr + Frag->CodeSize)
    M.fault(M.faultReason() + " (in the " +
            (Frag->isTrace() ? "trace" : "basic block") +
            " for application address " + std::to_string(Frag->Tag) + ")");
}

AppPc Runtime::handleIndirectArrival(AppPc Target, AppPc SiteCachePc,
                                     AppPc &Resume) {
  TC->LastTransitionBackwardBranch = false;

  if (TheClient) {
    // Security vetting hook (program shepherding). The transferring
    // instruction sits at SiteCachePc in the cache.
    if (!TheClient->onIndirectResolved(*this, int(M.opcodeAt(SiteCachePc)),
                                       Target)) {
      ++S.SecurityViolations;
      M.fault("security policy violation: indirect transfer to " +
              std::to_string(Target));
      return Target; // dispatcher loop observes the fault and stops
    }
  }

  if (!Config.LinkIndirectBranches) {
    // Without indirect linking every indirect branch is a full context
    // switch back to the dispatcher (the "+link direct" rung of Table 1).
    ++S.ContextSwitches;
    ++S.IbDispatcherReturns;
    chargeRuntime(M.cost().ContextSwitchCost);
    return Target;
  }

  // Adaptive inline caches: profile the site (host-side, free) and maybe
  // rewrite the owning fragment with an inline check chain. Must run
  // before the table probe — a rewrite can evict or replace fragments.
  if (RIO_UNLIKELY(IbOn)) {
    ibNoteArrival(Target, uint32_t(SiteCachePc));
    if (M.status() != RunStatus::Running)
      return Target; // rewrite faulted the machine; let the loop see it
  }

  // In-cache hashtable lookup (IBL): one probe of the flat table yields the
  // fragment, the head counter and the marked bit in a single cache line.
  ++S.IblLookups;
  chargeRuntime(M.cost().IblLookupCost);
  FragmentEntry &Entry = Table.slot(Target);
  Fragment *To = Entry.Frag;
  if (!To || inTraceGen()) {
    ++S.IblMisses;
    obsEvent(TraceEventKind::IblMiss, Target, SiteCachePc);
    ++S.ContextSwitches;
    chargeRuntime(M.cost().ContextSwitchCost);
    return Target;
  }
  if (To->IsTraceHead && Config.EnableTraces && !To->isTrace()) {
    // Count the head cheaply (as the stubs do) and continue in-cache; a
    // hot head surfaces to the dispatcher for trace generation.
    if (countHeadIsHot(Entry))
      return Target;
  }
  ++S.IblHits;
  obsEvent(TraceEventKind::IblHit, Target, To->CacheAddr);
  // If this lookup came from an unlinked chain arm's stub, the arm's
  // target is resolvable again: patch the arm direct for next time.
  if (RIO_UNLIKELY(!IbArmStubSites.empty()))
    ibMaybeRelinkArm(uint32_t(SiteCachePc), Target, To);
  // The translated indirect branch is an indirect jump through the BTB
  // (not the return-address stack) — the paper's Pentium penalty.
  if (!M.predictors().predictIndirect(SiteCachePc, To->CacheAddr))
    chargeRuntime(M.cost().MispredictPenalty);
  Resume = To->CacheAddr;
  return 0;
}

bool Runtime::countHeadIsHot(FragmentEntry &Entry) {
  chargeRuntime(M.cost().HeadCounterCost);
  ++S.HeadCounterBumps;
  if (++Entry.HeadCounter < Config.TraceThreshold)
    return false;
  --Entry.HeadCounter; // the dispatcher's noteDispatch re-counts this
  ++S.ContextSwitches;
  chargeRuntime(M.cost().ContextSwitchCost);
  return true;
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

void Runtime::takeSample(uint32_t Pc) {
  // Attribute the sample through the cache manager's slot map: a pc inside
  // a live fragment's slot charges that fragment's tag; anything else
  // (dispatcher entry, runtime slots, retired bytes) is runtime time,
  // reported under tag 0.
  Fragment *Frag = queryCM().fragmentAt(Pc);
  if (Frag && Frag->Doomed)
    Frag = nullptr;
  AppPc Tag = Frag ? Frag->Tag : 0;
  Prof->sample(M.cycles(), Tag, Frag && Frag->isTrace());
  obsEvent(TraceEventKind::Sample, Tag, Pc);
}
