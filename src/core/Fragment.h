//===- core/Fragment.h - Code cache fragments -------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *fragment* is a basic block or a trace in the code cache (the paper's
/// terminology, Section 2). Each fragment records its exits: the exit CTI's
/// position for link patching, the exit stub, the target application tag
/// for direct exits, and whether a client custom stub forces control
/// through the stub even when linked.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_FRAGMENT_H
#define RIO_CORE_FRAGMENT_H

#include "isa/Operand.h"

#include <vector>

namespace rio {

struct Fragment;

/// One exit from a fragment.
struct FragmentExit {
  enum class Kind {
    Direct,  ///< direct branch with a known target tag
    Indirect ///< indirect branch (ret / jmp* / call*) resolved at runtime
  };
  Kind ExitKind = Kind::Direct;

  /// Target application address (Direct exits only).
  AppPc TargetTag = 0;

  /// Exit positions are stored relative to the owning fragment's CacheAddr
  /// so that link records stay valid when a serialized fragment is restored
  /// at a different cache base (src/persist). Use ctiAddr()/stubAddr()/
  /// stubJmpAddr() with the owning fragment to get absolute cache pcs.

  /// Body offset of the exit CTI (the instruction to patch when linking).
  uint32_t CtiOff = 0;
  /// Length in bytes of the exit CTI (rel32 sits in the last 4 bytes).
  unsigned CtiLen = 0;

  /// Slot offset of this exit's stub.
  uint32_t StubOff = 0;
  /// Slot offset of the stub's final jmp (patched when linking *through*
  /// the stub) and its length.
  uint32_t StubJmpOff = 0;
  unsigned StubJmpLen = 0;

  uint32_t ctiAddr(const Fragment &Owner) const;
  uint32_t stubAddr(const Fragment &Owner) const;
  uint32_t stubJmpAddr(const Fragment &Owner) const;

  /// Client custom stub: control must flow through the stub even when the
  /// exit is linked (paper Section 3.2).
  bool AlwaysThroughStub = false;

  /// Link state.
  bool Linked = false;
  Fragment *LinkedTo = nullptr;

  /// Global exit-record index (what the stub stores into EXIT_ID_SLOT).
  uint32_t ExitId = 0;

  /// App address of the *source* CTI this exit descends from (0 when
  /// synthesized); used for the backward-branch trace-head heuristic.
  AppPc SourceAppPc = 0;

  /// Match arm of an adaptive indirect-branch inline chain. Its stub does
  /// not go to the dispatcher: it stores TargetTag into IbTargetSlot and
  /// jumps through it, re-entering the IBL, so unlinking the arm (target
  /// evicted/flushed/invalidated) degrades only that arm to a lookup
  /// without touching the chain owner.
  bool IsIbArm = false;

  /// The chain's fall-through indirect exit (taken when no arm matched).
  /// Arrivals here count as ib_inline_misses; the site is never rewritten
  /// again through this exit.
  bool IbMiss = false;
};

/// One contiguous application byte range [Lo, Hi) whose code backs part of
/// a fragment's body (cache consistency: a store into any of these ranges
/// invalidates the fragment).
struct AppRange {
  AppPc Lo = 0;
  AppPc Hi = 0;
};

/// One body location: the instruction at cache offset Off was generated
/// from the application instruction at App (0 when purely synthetic). For
/// Level 0 bundles the mapping is linear across the entry (Linear = true):
/// cache bytes are verbatim application bytes.
struct CodePoint {
  uint32_t Off = 0;
  AppPc App = 0;
  bool Linear = false;
};

/// An on-stack-replacement descriptor, one per trace side exit (emitted at
/// trace emission). It answers "execution is suspended inside this
/// fragment at offset X — where does the *application* continue?" with
/// exit-boundary precision, so a suspended thread can be transferred out
/// of a superseded version and resume in the re-optimized one:
///
///   - suspended exactly at the side-exit CTI (not yet executed): restart
///     at the CTI's own application pc (ResumeApp) — the branch re-executes
///     and re-decides;
///   - suspended inside the exit's stub (the branch *was* taken, control is
///     mid-way through the exit-id store / dispatcher jump): continue at
///     the exit's taken application target (TakenApp).
///
/// Offsets are slot-relative, like FragmentExit's, so descriptors survive
/// relocation.
struct OsrPoint {
  uint32_t CtiOff = 0;  ///< body offset of the side-exit CTI
  uint32_t StubOff = 0; ///< slot offset of the exit's stub
  uint32_t StubEnd = 0; ///< one past the stub's last byte (slot offset)
  AppPc ResumeApp = 0;  ///< app pc of the CTI itself (0 = synthetic)
  AppPc TakenApp = 0;   ///< app continuation once the exit is taken
};

/// A basic block or trace resident in the code cache.
struct Fragment {
  enum class Kind { BasicBlock, Trace };

  AppPc Tag = 0; ///< original application address (unique fragment id)
  Kind FragKind = Kind::BasicBlock;

  uint32_t CacheAddr = 0; ///< body start in the code cache
  unsigned CodeSize = 0;  ///< body size in bytes (stubs excluded)
  unsigned StubsSize = 0; ///< bytes of stubs following the body
  unsigned NumInstrs = 0; ///< instruction count of the body

  /// Simulated cycle count at emission. Host-side bookkeeping for the
  /// eviction-age histogram (support/Profile.h); never read by emitted
  /// code or the cost model.
  uint64_t BirthCycles = 0;

  std::vector<FragmentExit> Exits;

  /// Merged application ranges backing the body (sorted by Lo).
  std::vector<AppRange> AppRanges;

  /// Cache-offset -> application-pc map, sorted by Off (built at emission;
  /// used to resume at an application pc when this fragment is invalidated
  /// while execution sits inside it).
  std::vector<CodePoint> CodeMap;

  /// True if any byte of [Lo, Hi) backs this fragment's body.
  bool overlapsApp(AppPc Lo, AppPc Hi) const {
    for (const AppRange &R : AppRanges)
      if (R.Lo < Hi && Lo < R.Hi)
        return true;
    return false;
  }

  /// Application pc of the instruction starting at body offset \p Off; 0
  /// when the offset has no application equivalent.
  AppPc appPcAt(uint32_t Off) const {
    if (Off >= CodeSize)
      return 0;
    const CodePoint *Best = nullptr;
    for (const CodePoint &P : CodeMap) {
      if (P.Off > Off)
        break;
      Best = &P;
    }
    if (!Best || !Best->App)
      return 0;
    if (Best->Off == Off)
      return Best->App;
    return Best->Linear ? Best->App + (Off - Best->Off) : 0;
  }

  /// Body offset of the instruction whose recorded application address is
  /// exactly \p App (UINT32_MAX when no instruction carries it). For a
  /// body re-emitted from a decoded predecessor the recorded addresses
  /// are the predecessor's *cache* pcs, which makes this the map needed
  /// to move a thread suspended in the old body onto the corresponding
  /// instruction of the new one — on-stack replacement without a
  /// dispatcher round trip.
  uint32_t offsetOfAppPc(AppPc App) const {
    if (!App)
      return UINT32_MAX;
    for (const CodePoint &P : CodeMap)
      if (P.App == App)
        return P.Off;
    return UINT32_MAX;
  }

  /// OSR descriptors for this fragment's side exits (traces only; empty
  /// for basic blocks, which appPcAt covers). Sorted by CtiOff.
  std::vector<OsrPoint> OsrPoints;

  //===--- versioned publication (asynchronous sideline; core/Sideline.h) ---===
  //
  // Each in-place rewrite of a tag (dr_replace_fragment, the IB-inline
  // chain rewrite, a sideline publication) installs a new body with
  // Version + 1 and retires the one it superseded; the old bytes are
  // reclaimed once no thread's guard pc lies in them. Versions are
  // metadata only — they charge nothing and change no emitted byte — but
  // they let asynchronous re-optimization detect stale work (the job
  // recorded which version it decoded).

  /// In-place rewrites that led to this body (0 = first body built).
  uint32_t Version = 0;

  /// Application pc at which a thread suspended at body/slot offset \p Off
  /// should resume after this fragment is superseded: exit-boundary OSR
  /// descriptors first (they cover the stubs, where appPcAt has no
  /// answer), then the instruction-level CodeMap. 0 = no safe transfer
  /// point (the thread must finish on the old bytes).
  AppPc osrResumePc(uint32_t Off) const {
    for (const OsrPoint &P : OsrPoints) {
      if (P.CtiOff == Off && P.ResumeApp)
        return P.ResumeApp;
      if (Off >= P.StubOff && Off < P.StubEnd && P.TakenApp)
        return P.TakenApp;
    }
    return appPcAt(Off);
  }

  /// Exits of *other* fragments currently linked to this fragment
  /// (identified by ExitId); used to unlink incoming on deletion.
  std::vector<uint32_t> IncomingLinks;

  /// Marked as a trace head (counter maintained by the runtime).
  bool IsTraceHead = false;

  /// Pending deletion (replaced fragments are freed lazily; paper §3.4).
  bool Doomed = false;

  bool isTrace() const { return FragKind == Kind::Trace; }
};

inline uint32_t FragmentExit::ctiAddr(const Fragment &Owner) const {
  return Owner.CacheAddr + CtiOff;
}
inline uint32_t FragmentExit::stubAddr(const Fragment &Owner) const {
  return Owner.CacheAddr + StubOff;
}
inline uint32_t FragmentExit::stubJmpAddr(const Fragment &Owner) const {
  return Owner.CacheAddr + StubJmpOff;
}

} // namespace rio

#endif // RIO_CORE_FRAGMENT_H
