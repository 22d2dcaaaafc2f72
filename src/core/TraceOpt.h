//===- core/TraceOpt.h - Speculative trace optimizer -----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace optimizer the sideline runs over decoded trace bodies at their
/// publication points (core/Sideline.h). Two tiers:
///
/// *Non-speculative* — runValuePass(): a single forward value-tracking scan
/// over the linear trace (paper Section 3.1: linearity is what keeps this a
/// one-pass analysis) that generalizes the redundant-load-removal client's
/// binding scan into one engine doing redundant load removal/forwarding,
/// constant propagation into loads, and straight-line dead-store
/// elimination; plus reduceIncDec(), the paper's inc -> add 1 strength
/// reduction under the per-bit eflags liveness of core/Analysis.h. Both are
/// pure functions of the InstrList (allocating from its own arena).
///
/// *Speculative* — TraceOptClient::observe() hangs off the sampling
/// profiler's trace-sample hook (support/Profile.h) and watches the values
/// loaded from absolute application addresses a hot trace reads. A site
/// whose value is stable across consecutive samples is speculated
/// loop-invariant: the client asks the sideline for a re-optimization pass
/// (SidelineOptimizer::requestReopt), and at the publication point —
/// onSidelinePublish, on the application thread, where live machine memory
/// is readable — emits a flag-neutral entry *guard* per site
/// (mov/lea/jecxz, the inline-check idiom of core/IbInline.cpp) and folds
/// the guarded loads to immediates. The guard's bail-out is a direct jump
/// to the trace's own head tag marked Instr::setGuardCti: its exit is
/// never linked, so every misspeculation surfaces at the dispatcher, which
/// charges CostModel::DeoptCost, counts the failure against the *tag*, and
/// deoptimizes back to a pristine rebuild (Runtime::deoptimizeFragment);
/// RuntimeConfig::TraceOptBlacklistAfter failures blacklist the tag for
/// good. Guards precede every application instruction of the iteration and
/// spill/restore ecx through a private slot, so bailing to the head is
/// always transparent.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_TRACEOPT_H
#define RIO_CORE_TRACEOPT_H

#include "core/Client.h"
#include "isa/Operand.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace rio {

class Runtime;

/// A "the word at Mem holds Value" fact seeded into runValuePass() from
/// outside the list — in practice by an entry guard the speculative tier
/// just emitted. Because a seeded fact holds on *entry*, it holds on every
/// path to any point the scan reaches without crossing a possibly-aliasing
/// store (facts are only ever killed, never re-established), so unlike
/// scan-discovered facts it survives internal labels. It still dies at
/// bundles (unexamined code) and aliasing stores.
struct MemConstFact {
  Operand Mem;
  uint32_t Value;
};

/// Per-feature switches for runValuePass().
struct ValuePassConfig {
  bool RemoveLoads = true;         ///< redundant load removal / forwarding
  bool FoldConsts = true;          ///< constant propagation into loads
  bool EliminateDeadStores = true; ///< straight-line dead-store elimination
  /// Entry facts guaranteed by guards (see MemConstFact). 4-byte absolute
  /// operands only; anything else is ignored.
  std::vector<MemConstFact> GuardedFacts;
};

/// What one runValuePass() call did.
struct ValuePassStats {
  uint64_t LoadsRemoved = 0;
  uint64_t LoadsForwarded = 0;
  uint64_t ConstsFolded = 0;
  uint64_t DeadStoresElided = 0;
  ValuePassStats &operator+=(const ValuePassStats &O) {
    LoadsRemoved += O.LoadsRemoved;
    LoadsForwarded += O.LoadsForwarded;
    ConstsFolded += O.ConstsFolded;
    DeadStoresElided += O.DeadStoresElided;
    return *this;
  }
};

/// The generalized value-tracking pass (see file comment): one forward scan
/// tracking memory-operand/register bindings, known register and memory
/// constants, and unobserved stores. \p RuntimeBase separates application
/// memory from runtime-private slots for the may-alias test. Replacement
/// instructions are allocated from \p IL's own arena.
ValuePassStats runValuePass(InstrList &IL, uint32_t RuntimeBase,
                            const ValuePassConfig &Cfg = ValuePassConfig());

/// inc/dec -> add/sub 1 strength reduction under per-bit eflags liveness:
/// inc preserves CF where add writes it, so the rewrite is legal exactly
/// when no reader of the stale CF follows (core/Analysis.h liveEflagsAt).
/// Profitable only where the cost model charges IncDecExtra (Pentium 4);
/// the caller gates on that. Returns the number of conversions.
unsigned reduceIncDec(InstrList &IL);

/// Configuration for TraceOptClient.
struct TraceOptOptions {
  bool RemoveLoads = true;
  bool FoldConsts = true;
  bool EliminateDeadStores = true;
  bool StrengthReduce = true;
  /// Enables the speculative tier (observe + guarded rewrites). Off by
  /// default: with it off and no profile hook installed the client is a
  /// pure per-trace transform and the run is bit-identical to the same
  /// configuration without speculation support.
  bool Speculate = false;
  /// Consecutive same-value observations of a site before it is
  /// speculated loop-invariant.
  unsigned StableSamples = 3;
  /// Guards emitted per trace version (the cheapest insurance against a
  /// pathological trace reading dozens of stable sites).
  unsigned MaxGuards = 2;
};

/// The pass pipeline as a client (see file comment). Wraps an optional
/// inner client whose hooks run first, so it composes with an existing
/// tool stack; typically installed under a SidelineOptimizer.
class TraceOptClient : public Client {
public:
  explicit TraceOptClient(const TraceOptOptions &Opts = TraceOptOptions(),
                          Client *Inner = nullptr)
      : Opts(Opts), Inner(Inner) {}

  void onInit(Runtime &RT) override;
  void onExit(Runtime &RT) override;
  void onThreadInit(Runtime &RT) override;
  void onThreadExit(Runtime &RT) override;
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override;
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override;
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override;

  /// The non-speculative tier: value pass + strength reduction. Under the
  /// sideline it runs at the publication point, just before
  /// onSidelinePublish.
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;

  /// The speculative tier: runs on the application thread at the sideline
  /// publication point, re-validates the observed values against live
  /// machine memory, and only then emits guards and folds.
  void onSidelinePublish(Runtime &RT, AppPc Tag, InstrList &IL) override;

  bool persistSafe() const override {
    return !Inner || Inner->persistSafe();
  }

  /// Profile-stream observer, wired to SampleProfile::setTraceSampleHook.
  /// Samples the current values of \p Tag's candidate load sites; returns
  /// true when the tag has a fresh speculation plan, in which case the
  /// caller should SidelineOptimizer::requestReopt(RT, Tag). Application
  /// thread only; charges nothing.
  bool observe(Runtime &RT, AppPc Tag, uint64_t TraceSamples);

  const TraceOptOptions &options() const { return Opts; }
  /// Non-speculative tier counters. Under the sideline they count the
  /// traces transformed at publication points — never a job that went
  /// stale first — so a fixed seed fixes them.
  const ValuePassStats &valueStats() const { return TransformStats; }
  uint64_t tracesOptimized() const { return TracesOptimized; }
  uint64_t incDecReduced() const { return IncDecReduced; }
  /// Speculative tier counters (application thread).
  const ValuePassStats &publishStats() const { return PublishStats; }
  uint64_t guardsEmitted() const { return GuardsEmitted; }
  uint64_t speculationsApplied() const { return SpeculationsApplied; }

private:
  /// One watched load site of one trace.
  struct SpecSite {
    uint32_t Addr = 0;    ///< absolute application address (4-byte word)
    uint32_t LastVal = 0; ///< value at the most recent sample
    unsigned Streak = 0;  ///< consecutive samples with this value
  };
  /// Per-(runtime, trace tag) speculation state. Keyed on the runtime so
  /// one client serves every tenant; survives versions and deopts — the
  /// streaks belong to the *tag*, like the failure counters.
  struct SpecState {
    bool Scanned = false;
    std::vector<SpecSite> Sites;
    int64_t RequestedVersion = -1; ///< version a reopt was requested for
    int64_t AppliedVersion = -1;   ///< version guards were applied onto
  };

  TraceOptOptions Opts;
  Client *Inner;

  // Non-speculative tier (onTrace).
  ValuePassStats TransformStats;
  uint64_t TracesOptimized = 0;
  uint64_t IncDecReduced = 0;

  // Speculative tier (observe / onSidelinePublish).
  ValuePassStats PublishStats;
  uint64_t GuardsEmitted = 0;
  uint64_t SpeculationsApplied = 0;
  std::map<std::pair<Runtime *, AppPc>, SpecState> Spec;
};

} // namespace rio

#endif // RIO_CORE_TRACEOPT_H
