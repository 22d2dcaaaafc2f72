//===- core/IbInline.cpp - Adaptive indirect-branch inline caches -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-site indirect-branch target profiling and hot-fragment rewriting
/// (paper Sections 3.4 and 4.3 put together): the runtime observes every
/// IBL arrival for free on the host side and, once a site is hot and its
/// target distribution skewed, rebuilds the owning fragment in place with
/// an inline chain of flags-free target checks in front of the IBL
/// fall-back. Each chain arm is an ordinary direct exit wired into the link
/// graph, so eviction, flushing, or SMC invalidation of a *target* re-routes
/// just that arm back through the IBL — the chain owner is never unlinked.
///
/// Chain shape for targets T1..Tk (after spill collapsing; X is a reserved
/// spill slot, T the IB target slot):
///
///     mov  [X], ecx
///     <load ecx = branch target>      ; pop for ret, load for jmp*
///     mov  [T], ecx
///     lea  ecx, [ecx - T1]
///     jecxz A1
///     mov  ecx, [T]
///     lea  ecx, [ecx - T2]
///     jecxz A2
///     ...
///     mov  ecx, [X]
///     jmp  *[T]                       ; chain miss: the ordinary IBL path
///   A1: mov ecx, [X] ; jmp T1         ; direct exit, linked to T1's body
///   A2: mov ecx, [X] ; jmp T2
///
/// Like the trace builder's single-target inline check, the comparison is
/// built from lea and jecxz so no eflags are touched. One ecx spill serves
/// the whole chain; the naive per-segment spill/restore bracketing is
/// collapsed by core/Analysis's redundant-spill pass, and the same rewrite
/// makes the client's conservative savef/restf pairs re-analyzable.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Runtime.h"

#include "ir/Build.h"

#include <algorithm>

using namespace rio;

void Runtime::ibNoteArrival(AppPc Target, uint32_t SiteCachePc) {
  // Trace recording needs every transition to surface at the dispatcher;
  // fragments are transient shadows there anyway.
  if (inTraceGen())
    return;
  // Arrivals from an unlinked arm's stub are re-route traffic, not site
  // traffic: the relink probe on the IBL hit path handles them.
  if (IbArmStubSites.count(SiteCachePc))
    return;
  Fragment *Owner = queryCM().fragmentAt(SiteCachePc);
  if (!Owner || Owner->Doomed)
    return;
  unsigned ExitIdx = ~0u;
  for (unsigned Idx = 0; Idx != Owner->Exits.size(); ++Idx) {
    const FragmentExit &Exit = Owner->Exits[Idx];
    if (Exit.ExitKind == FragmentExit::Kind::Indirect &&
        Exit.ctiAddr(*Owner) == SiteCachePc) {
      ExitIdx = Idx;
      break;
    }
  }
  if (ExitIdx == ~0u)
    return;
  FragmentExit &Exit = Owner->Exits[ExitIdx];
  if (Exit.SourceAppPc == 0)
    return; // synthetic exit: no stable site identity to profile under

  // Keyed by the application pc of the branch so the histogram survives
  // eviction and rebuild of the owning fragment.
  IbSiteProfile &P = IbProfiles[Exit.SourceAppPc];
  ++P.Total;
  bool Tracked = false;
  for (unsigned K = 0; K != IbSiteProfile::MaxTargets; ++K) {
    if (P.Targets[K] == Target) {
      ++P.Counts[K];
      Tracked = true;
      break;
    }
    if (P.Targets[K] == 0) {
      P.Targets[K] = Target;
      P.Counts[K] = 1;
      Tracked = true;
      break;
    }
  }
  if (!Tracked)
    ++P.Other;

  if (Exit.IbMiss) {
    // The chain in front of this exit fell through (or the site is
    // poisoned). Keep counting — the histogram stays truthful for a
    // rebuild — but never rewrite a second time.
    ++S.IbInlineMisses;
    return;
  }
  if (P.Total < Config.IbInlineThreshold)
    return;

  // Skew check: take the hottest targets, each carrying at least 1/16 of
  // the arrivals, up to four arms; rewrite only when together they cover
  // at least a third of all arrivals.
  unsigned Order[IbSiteProfile::MaxTargets];
  unsigned N = 0;
  for (unsigned K = 0; K != IbSiteProfile::MaxTargets; ++K)
    if (P.Targets[K])
      Order[N++] = K;
  std::stable_sort(Order, Order + N, [&P](unsigned A, unsigned B) {
    return P.Counts[A] > P.Counts[B];
  });
  // At most 8 arms keeps the jecxz short-branch reach over the chain tail
  // from overflowing.
  constexpr unsigned Cap = 4;
  static_assert(Cap <= IbSiteProfile::MaxTargets);
  AppPc Picks[IbSiteProfile::MaxTargets];
  unsigned NumPicks = 0;
  uint64_t Covered = 0;
  for (unsigned Idx = 0; Idx != N && NumPicks != Cap; ++Idx) {
    unsigned K = Order[Idx];
    if (P.Counts[K] * 16 < P.Total)
      break; // ordered, so everything after is colder still
    Picks[NumPicks++] = P.Targets[K];
    Covered += P.Counts[K];
  }
  if (NumPicks == 0 || Covered * 3 < P.Total)
    return;
  if (RIO_UNLIKELY(Tpl != nullptr)) {
    // The rewrite replaces the owning fragment: privatize the shared cache
    // first, then refetch the owner — cache addresses survive unsharing,
    // and so does the exit order within a fragment.
    ensureUnshared();
    Owner = CM.fragmentAt(SiteCachePc);
    if (!Owner || Owner->Doomed || ExitIdx >= Owner->Exits.size())
      return;
  }
  ibRewriteSite(Owner, ExitIdx, Picks, NumPicks);
}

bool Runtime::ibRewriteSite(Fragment *Owner, unsigned ExitIdx,
                            const AppPc *Targets, unsigned NumTargets) {
  const AppPc Tag = Owner->Tag;
  const AppPc Site = Owner->Exits[ExitIdx].SourceAppPc;
  // Poison on any failure below: mark the exit as a (target-less) chain
  // miss so this fragment instance never re-triggers. A rebuild of the
  // fragment retries with a clean slate.
  auto Poison = [&]() {
    Owner->Exits[ExitIdx].IbMiss = true;
    return false;
  };

  Arena A(1u << 14);
  InstrList *IL = decodeFragment(A, Tag);
  if (!IL)
    return Poison();

  // Locate the site instruction: exits were recorded in instruction order,
  // so the k-th indirect exit is the k-th indirect CTI of the decoded list.
  unsigned NthIndirect = 0;
  for (unsigned Idx = 0; Idx != ExitIdx; ++Idx)
    if (Owner->Exits[Idx].ExitKind == FragmentExit::Kind::Indirect)
      ++NthIndirect;
  Instr *SiteI = nullptr;
  unsigned Seen = 0;
  for (Instr &I : *IL) {
    if (I.isLabel() || I.isBundle() || !I.isCti() || !I.isIndirectCti())
      continue;
    if (Seen++ == NthIndirect) {
      SiteI = &I;
      break;
    }
  }
  if (!SiteI || SiteI->isIbMissCti())
    return Poison();

  Opcode Op = SiteI->getOpcode();
  if (Op != OP_ret && Op != OP_ret_imm && Op != OP_jmp_ind)
    return Poison(); // calls are mangled away before emission

  Operand Ecx = Operand::reg(REG_ECX);
  // Slot 7: slots 0/1 belong to mangling and trace checks, slot 2 to the
  // IB-dispatch client — all of which may be live across the chain.
  Operand X = Operand::memAbs(Slots.SpillSlots + 28, 4);
  Operand T = Operand::memAbs(Slots.IbTargetSlot, 4);

  // Build the chain as self-contained segments; collapseRedundantSpills
  // below merges the segment boundaries into a single spill/restore.
  InstrList Chain(A);
  auto add = [&](Instr *I) {
    assert(I && "failed to create chain instruction");
    I->setAppAddr(Site);
    Chain.append(I);
    return I;
  };

  // Materialize the target into [T] (and ecx).
  add(Instr::createSynth(A, OP_mov, {X, Ecx}));
  loadIndirectTarget(A, *SiteI, add);
  add(Instr::createSynth(A, OP_mov, {T, Ecx}));
  add(Instr::createSynth(A, OP_mov, {Ecx, X}));

  // One lea/jecxz check per target.
  std::vector<Instr *> ArmLabels;
  for (unsigned K = 0; K != NumTargets; ++K) {
    add(Instr::createSynth(A, OP_mov, {X, Ecx}));
    add(Instr::createSynth(A, OP_mov, {Ecx, T}));
    add(Instr::createSynth(
        A, OP_lea, {Ecx, Operand::mem(REG_ECX, -int32_t(Targets[K]), 4)}));
    Instr *Arm = Instr::createLabel(A);
    ArmLabels.push_back(Arm);
    Instr *Jecxz = Instr::createSynth(A, OP_jecxz, {Operand::pc(0)});
    Jecxz->setBranchTargetLabel(Arm);
    add(Jecxz);
    add(Instr::createSynth(A, OP_mov, {Ecx, X}));
  }

  // Chain miss: the ordinary indirect path, marked so its exit never
  // re-triggers a rewrite and misses are counted at the IBL.
  Instr *Tail = add(Instr::createSynth(A, OP_jmp_ind, {T}));
  Tail->setIbMissCti(true);

  // Match arms: restore ecx, then a direct exit to the target's tag.
  for (unsigned K = 0; K != NumTargets; ++K) {
    Chain.append(ArmLabels[K]);
    add(Instr::createSynth(A, OP_mov, {Ecx, X}));
    Instr *Jmp = add(
        Instr::createSynth(A, OP_jmp, {Operand::pc(Targets[K])}));
    Jmp->setIbArmCti(true);
  }

  // Splice the chain in: in place when the site terminates the fragment,
  // otherwise (a trace's inlined miss path) divert to the bottom so the
  // fall-through paths around the site stay intact.
  bool SiteIsLast = true;
  for (Instr *I = SiteI->next(); I; I = I->next())
    if (!I->isLabel()) {
      SiteIsLast = false;
      break;
    }
  if (SiteIsLast) {
    for (Instr *I = Chain.first(); I;) {
      Instr *Next = I->next();
      Chain.remove(I);
      IL->insertBefore(SiteI, I);
      I = Next;
    }
    IL->remove(SiteI);
  } else {
    Instr *ChainLabel = Instr::createLabel(A);
    Instr *Divert = Instr::createSynth(A, OP_jmp, {Operand::pc(0)});
    Divert->setBranchTargetLabel(ChainLabel);
    Divert->setAppAddr(Site);
    IL->replace(SiteI, Divert);
    IL->append(ChainLabel);
    IL->splice(Chain);
  }

  // Mangling-cleanup post-passes over the whole rebuilt list: the chain's
  // segment brackets collapse to one spill, and client flag preservation
  // that the fresh liveness scan proves dead goes away with them.
  S.IbInlineSpillsCollapsed += collapseRedundantSpills(*IL);
  S.IbInlineFlagPairsElided += elideDeadFlagSavePairs(*IL);

  if (!replaceFragment(Tag, *IL))
    return Poison();
  ++S.IbInlineRewrites;
  obsEvent(TraceEventKind::IbInlineRewrite, Tag, NumTargets);
  return true;
}

void Runtime::ibMaybeRelinkArm(uint32_t SiteCachePc, AppPc Target,
                               Fragment *To) {
  auto It = IbArmStubSites.find(SiteCachePc);
  if (It == IbArmStubSites.end())
    return;
  const uint32_t ExitId = It->second;
  {
    auto [Owner, ExitIdx] = ExitRecords[ExitId];
    const FragmentExit &Exit = Owner->Exits[ExitIdx];
    if (Exit.Linked || Owner->Doomed || Exit.TargetTag != Target)
      return;
    // Same gate as lazy linking: unpromoted trace heads keep arriving at
    // the IBL so their execution counters keep counting.
    if (To->IsTraceHead && Config.EnableTraces && !To->isTrace())
      return;
  }
  if (RIO_UNLIKELY(Tpl != nullptr)) {
    // Linking patches cache code and link metadata: privatize first. Exit
    // ids survive unsharing, so refetch through the rebuilt records (the
    // iterator and fragment pointers above are stale now).
    ensureUnshared();
    To = lookupFragment(Target);
    if (!To)
      return;
  }
  auto [Owner, ExitIdx] = ExitRecords[ExitId];
  FragmentExit &Exit = Owner->Exits[ExitIdx];
  if (Exit.Linked || Owner->Doomed)
    return;
  linkExit(Owner, Exit, To);
  ++S.IbInlineArmRelinks;
}

void Runtime::ibNoteArmExec(uint32_t Pc) {
  auto It = IbArmPcs.find(Pc);
  if (It == IbArmPcs.end())
    return;
  auto [Owner, ExitIdx] = ExitRecords[It->second];
  const FragmentExit &Exit = Owner->Exits[ExitIdx];
  if (!Exit.Linked)
    return; // the stub's IBL arrival accounts for unlinked traversals
  ++S.IbInlineHits;
  obsEvent(TraceEventKind::IbInlineHit, Exit.TargetTag, Pc);
}

void Runtime::addIbArmPc(uint32_t Pc, uint32_t ExitId) {
  IbArmPcs[Pc] = ExitId;
  M.setStopPc(Pc, true);
}

void Runtime::eraseIbArmPc(uint32_t Pc) {
  if (IbArmPcs.erase(Pc))
    M.setStopPc(Pc, false);
}

void Runtime::clearIbArmPcs() {
  for (const auto &[Pc, ExitId] : IbArmPcs)
    M.setStopPc(Pc, false);
  IbArmPcs.clear();
}

uint64_t Runtime::ibProfileArrivalsTotal() const {
  uint64_t Total = 0;
  for (const auto &[Site, Profile] : IbProfiles)
    Total += Profile.Total;
  return Total;
}

void Runtime::dropIbSites(Fragment *Frag) {
  if (IbArmPcs.empty() && IbArmStubSites.empty())
    return;
  for (const FragmentExit &Exit : Frag->Exits) {
    if (!Exit.IsIbArm)
      continue;
    eraseIbArmPc(Exit.ctiAddr(*Frag));
    IbArmStubSites.erase(Exit.stubJmpAddr(*Frag));
  }
}
