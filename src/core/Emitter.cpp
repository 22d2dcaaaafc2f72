//===- core/Emitter.cpp - Block building, emission, and linking -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fragment construction: lifting application code, mangling it for cache
/// residence (calls push *application* return addresses — transparency),
/// emitting bodies plus exit stubs into the cache, and link management.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "ir/Build.h"
#include "support/Compiler.h"

#include <algorithm>

using namespace rio;

//===----------------------------------------------------------------------===//
// Cache allocation
//===----------------------------------------------------------------------===//

uint32_t Runtime::allocCache(unsigned Size, Fragment::Kind Kind) {
  // Guards: cache pcs some thread may still re-enter. The active thread
  // contributes its clean-call/suspension pc; in shared-cache mode every
  // other suspended thread contributes its resume pc, so eviction and
  // reclamation below never free bytes any thread is logically inside.
  const std::vector<uint32_t> &Guards = collectGuardPcs();
  uint32_t Addr = CM.allocate(Kind, Size, Guards);
  if (!Addr) {
    // Incremental capacity management: make room by evicting the oldest
    // fragments of this cache (paper Section 6's alternative to flushing
    // the entire cache). Evicted trace heads stay marked so a re-arrival
    // re-promotes without recounting from zero.
    Addr = CM.allocateEvicting(Kind, Size, Guards, [this](Fragment *Victim) {
      ++S.CacheEvictions;
      S.CacheEvictedBytes += Victim->CodeSize + Victim->StubsSize;
      obsEvent(TraceEventKind::CacheEvicted, Victim->Tag,
               Victim->CodeSize + Victim->StubsSize);
      if (Prof)
        Prof->EvictionAges.add(M.cycles() - Victim->BirthCycles);
      if (Victim->isTrace())
        Table.slot(Victim->Tag).Marked = true;
      chargeRuntime(M.cost().FragmentEvictCost);
      deleteFragment(Victim);
    });
  }
  if (!Addr) {
    M.fault("code cache exhausted");
    return 0;
  }
  return Addr;
}

//===----------------------------------------------------------------------===//
// Client transformation cost accounting
//===----------------------------------------------------------------------===//

uint64_t Runtime::clientTransformCost(InstrList &IL) const {
  // Cost scales with the level of detail actually reached, mirroring the
  // Table 2 asymmetry: bundles/raw instructions were never examined; Level
  // 2 cost a light decode; Level 3 a full decode; Level 4 a full encode.
  const CostModel &CM = M.cost();
  uint64_t Cost = 0;
  for (Instr &I : IL) {
    switch (I.level()) {
    case Instr::Level::Bundle:
    case Instr::Level::Raw:
      break;
    case Instr::Level::OpcodeKnown:
      Cost += CM.ClientDecodeLevel02;
      break;
    case Instr::Level::Decoded:
      Cost += CM.ClientDecodeLevel3;
      break;
    case Instr::Level::Synth:
      Cost += CM.ClientDecodeLevel3 + CM.ClientEncodeLevel4;
      break;
    }
  }
  return Cost;
}

//===----------------------------------------------------------------------===//
// Mangling
//===----------------------------------------------------------------------===//

void Runtime::mangleForCache(InstrList &IL) {
  Arena &A = IL.arena();
  struct Trampoline {
    Instr *Jecxz, *Label, *Far;
  };
  std::vector<Trampoline> Trampolines;
  for (Instr *I = IL.first(); I;) {
    Instr *Next = I->next();
    if (I->isBundle() || I->isLabel()) {
      I = Next;
      continue;
    }
    Opcode Op = I->getOpcode();

    if (Op == OP_call) {
      // call T  ==>  push $app_return ; jmp T
      // The pushed return address must be the *application* address, never
      // a cache address (transparency; paper Sections 2 and 5).
      AppPc Ret = I->appAddr() + I->rawLength();
      Instr *Push =
          Instr::createSynth(A, OP_push, {Operand::imm(int64_t(Ret), 4)});
      Instr *Jmp =
          Instr::createSynth(A, OP_jmp, {Operand::pc(I->branchTarget())});
      Jmp->setAppAddr(I->appAddr());
      IL.insertBefore(I, Push);
      IL.replace(I, Jmp);
      I = Next;
      continue;
    }

    if (Op == OP_call_ind) {
      // call RM ==> spill scratch; compute target; push $app_return;
      //             jmp_ind [IbTargetSlot]
      // The target is computed *before* the push, matching hardware
      // semantics when RM addresses through esp.
      AppPc Ret = I->appAddr() + I->rawLength();
      Operand Rm = I->getSrc(0);
      Register Scratch = REG_EAX;
      while (Rm.usesRegister(Scratch))
        Scratch = Register(Scratch + 1);
      Operand Spill = Operand::memAbs(Slots.SpillSlots, 4);
      Operand TargetSlot = Operand::memAbs(Slots.IbTargetSlot, 4);
      Instr *Seq[6] = {
          Instr::createSynth(A, OP_mov, {Spill, Operand::reg(Scratch)}),
          Instr::createSynth(A, OP_mov, {Operand::reg(Scratch), Rm}),
          Instr::createSynth(A, OP_mov, {TargetSlot, Operand::reg(Scratch)}),
          Instr::createSynth(A, OP_mov, {Operand::reg(Scratch), Spill}),
          Instr::createSynth(A, OP_push, {Operand::imm(int64_t(Ret), 4)}),
          Instr::createSynth(A, OP_jmp_ind, {TargetSlot}),
      };
      for (Instr *S : Seq) {
        assert(S && "mangle sequence creation failed");
        S->setAppAddr(I->appAddr());
        IL.insertBefore(I, S);
      }
      IL.remove(I);
      I = Next;
      continue;
    }

    if (Op == OP_jecxz && I->getSrc(0).isPc()) {
      // jecxz only has a rel8 form and cannot reach an exit stub; bounce
      // through a nearby trampoline that can:
      //   jecxz L ; ... ; L: jmp T
      Instr *Local = Instr::createLabel(A);
      Instr *Far =
          Instr::createSynth(A, OP_jmp, {Operand::pc(I->getSrc(0).getPc())});
      Far->setAppAddr(I->appAddr());
      I->setBranchTargetLabel(Local);
      IL.append(Local);
      IL.append(Far);
      Trampolines.push_back({I, Local, Far});
      I = Next;
      continue;
    }

    assert(Op != OP_call && "unmangled call left in cache-bound list");
    I = Next;
  }

  // In a long fragment the end of the list may lie beyond rel8 reach of a
  // jecxz. Until the body encodes, move trampolines next to their jecxz,
  // first to last (each move brings every later trampoline 5 bytes closer
  // to its jecxz):
  //   jecxz L ; jmp F ; L: jmp T ; F: ...
  // A body that encodes with every trampoline at its end keeps that layout.
  EmitResult Sizing;
  for (const Trampoline &T : Trampolines) {
    if (emitInstrList(IL, /*BaseAddr=*/0x7F000000, nullptr, 0,
                      /*AllowShortBranches=*/false, Sizing))
      return;
    Instr *FallThrough = Instr::createLabel(A);
    Instr *Skip =
        Instr::createSynth(A, OP_jmp, {Operand::pc(T.Jecxz->appAddr())});
    Skip->setBranchTargetLabel(FallThrough);
    Skip->setAppAddr(T.Jecxz->appAddr());
    IL.remove(T.Label);
    IL.remove(T.Far);
    IL.insertAfter(T.Jecxz, Skip);
    IL.insertAfter(Skip, T.Label);
    IL.insertAfter(T.Label, T.Far);
    IL.insertAfter(T.Far, FallThrough);
  }
}

//===----------------------------------------------------------------------===//
// Fragment emission
//===----------------------------------------------------------------------===//

Fragment *Runtime::emitFragment(AppPc Tag, InstrList &IL, Fragment::Kind Kind,
                                unsigned NumInstrs) {
  assert(!Tpl && "forked tenant must unshare before emitting fragments");
  // Identify exits: direct CTIs whose target is an application pc operand
  // (intra-fragment branches are label-bound), plus indirect CTIs.
  struct PendingExit {
    Instr *Cti;
    AppPc TargetTag;    // 0 for indirect
    InstrList *Custom;  // client custom stub
    bool AlwaysThrough;
    bool IsIbArm;       // inline-chain match arm (direct)
    bool IbMiss;        // inline-chain fall-through (indirect)
  };
  std::vector<PendingExit> Pending;
  for (Instr &I : IL) {
    if (I.isBundle() || I.isLabel())
      continue;
    if (!I.isCti())
      continue;
    if (I.isIndirectCti()) {
      Pending.push_back({&I, 0, nullptr, false, false, I.isIbMissCti()});
      continue;
    }
    assert(I.numSrcs() >= 1 && "direct CTI without target operand");
    if (I.getSrc(0).isInstr())
      continue; // internal branch to a label
    assert(!I.isCall() && "calls must be mangled before emission");
    Pending.push_back({&I, I.getSrc(0).getPc(), nullptr, false,
                       I.isIbArmCti(), false});
  }

  // Attach client custom stubs registered during the hook.
  for (const CustomStub &CS : PendingCustomStubs)
    for (PendingExit &PE : Pending)
      if (PE.Cti == CS.ExitCti) {
        PE.Custom = CS.Stub;
        PE.AlwaysThrough = CS.AlwaysThrough;
      }
  PendingCustomStubs.clear();

  // Sizing pass for the body.
  EmitResult Sizing;
  if (!emitInstrList(IL, /*BaseAddr=*/0x7F000000, nullptr, 0,
                     /*AllowShortBranches=*/false, Sizing)) {
    M.fault("fragment body failed to encode");
    return nullptr;
  }

  // Stub layout: stubs follow the body. Each stub is
  //   [custom client instrs] mov [ExitIdSlot], $exit_id ; jmp dispatcher
  // (10 + 5 bytes for the fixed part).
  unsigned StubBytes = 0;
  std::vector<unsigned> StubOffset(Pending.size(), 0);
  std::vector<unsigned> CustomSize(Pending.size(), 0);
  unsigned BodySize = Sizing.TotalSize;
  for (size_t Idx = 0; Idx != Pending.size(); ++Idx) {
    if (Pending[Idx].TargetTag == 0)
      continue; // indirect exits resolve through the IBL, not stubs
    StubOffset[Idx] = BodySize + StubBytes;
    unsigned Custom = 0;
    if (Pending[Idx].Custom) {
      int Len = Pending[Idx].Custom->encodedLength(0x7F000000, false);
      if (Len < 0) {
        M.fault("custom exit stub failed to encode");
        return nullptr;
      }
      Custom = unsigned(Len);
    }
    CustomSize[Idx] = Custom;
    // Chain-arm stubs re-route via IbTargetSlot -> IBL (10 + 6 bytes);
    // ordinary stubs record their exit id and context-switch (10 + 5).
    StubBytes += Custom + (Pending[Idx].IsIbArm ? 16 : 15);
  }

  uint32_t Base = allocCache(BodySize + StubBytes, Kind);
  if (!Base)
    return nullptr;

  auto *Frag = new Fragment();
  Fragments.emplace_back(Frag);
  Frag->Tag = Tag;
  Frag->FragKind = Kind;
  Frag->CacheAddr = Base;
  Frag->CodeSize = BodySize;
  Frag->StubsSize = StubBytes;
  Frag->NumInstrs = NumInstrs;
  Frag->BirthCycles = M.cycles();

  // Create exit records and retarget direct exit CTIs at their stubs.
  for (size_t Idx = 0; Idx != Pending.size(); ++Idx) {
    PendingExit &PE = Pending[Idx];
    FragmentExit Exit;
    Exit.SourceAppPc = PE.Cti->appAddr();
    if (PE.TargetTag == 0) {
      Exit.ExitKind = FragmentExit::Kind::Indirect;
      Exit.IbMiss = PE.IbMiss;
      Frag->Exits.push_back(Exit);
      continue;
    }
    Exit.ExitKind = FragmentExit::Kind::Direct;
    Exit.IsIbArm = PE.IsIbArm;
    Exit.TargetTag = PE.TargetTag;
    Exit.StubOff = StubOffset[Idx];
    Exit.ExitId = uint32_t(ExitRecords.size());
    ExitRecords.emplace_back(Frag, unsigned(Frag->Exits.size()));
    Exit.AlwaysThroughStub = PE.AlwaysThrough;
    PE.Cti->setBranchTarget(Base + Exit.StubOff);
    Frag->Exits.push_back(Exit);
  }

  // Final body emission into a staging buffer, then one block store into
  // the paged image. No raw image pointer is held across the store, so the
  // copy-on-write fault (for a forked machine) happens inside writeBlock.
  EmitResult Placement;
  std::vector<uint8_t> Body(BodySize);
  if (!emitInstrList(IL, Base, Body.data(), Body.size(),
                     /*AllowShortBranches=*/false, Placement)) {
    M.fault("fragment body failed to encode at placement");
    return nullptr;
  }
  assert(Placement.TotalSize == BodySize && "body size changed at placement");
  M.mem().writeBlock(Base, Body.data(), BodySize);

  // Record exit CTI addresses: direct exits for link patching, indirect
  // exits so an IBL arrival (whose site pc is the transferring CTI) can be
  // matched back to its exit record for per-site target profiling.
  for (size_t Idx = 0; Idx != Pending.size(); ++Idx) {
    FragmentExit &Exit = Frag->Exits[Idx];
    unsigned Off = Placement.offsetOf(Pending[Idx].Cti);
    assert(Off != ~0u && "exit CTI missing from placement");
    Exit.CtiOff = Off;
    Exit.CtiLen =
        unsigned(Pending[Idx].Cti->encodedLength(Base + Off, false));
    if (Exit.IsIbArm)
      addIbArmPc(Exit.ctiAddr(*Frag), Exit.ExitId);
  }

  // Emit stubs.
  for (size_t Idx = 0; Idx != Pending.size(); ++Idx) {
    if (Pending[Idx].TargetTag == 0)
      continue;
    FragmentExit &Exit = Frag->Exits[Idx];
    uint32_t StubPc = Exit.stubAddr(*Frag);
    if (Pending[Idx].Custom) {
      EmitResult StubRes;
      std::vector<uint8_t> StubBuf(CustomSize[Idx] + 16);
      if (!emitInstrList(*Pending[Idx].Custom, StubPc, StubBuf.data(),
                         StubBuf.size(), false, StubRes)) {
        M.fault("custom exit stub failed to encode at placement");
        return nullptr;
      }
      M.mem().writeBlock(StubPc, StubBuf.data(), StubRes.TotalSize);
      StubPc += StubRes.TotalSize;
    }
    if (Exit.IsIbArm) {
      // Chain-arm stub: when the arm's target fragment is gone, the arm
      // falls back through the IBL rather than the dispatcher. The stub
      // re-materializes the (known, constant) target into IbTargetSlot and
      // re-issues the indirect transfer, so an unlinked arm costs one IBL
      // lookup and the chain owner never needs unlinking.
      Arena Tmp(256);
      Instr *Mov = Instr::createSynth(
          Tmp, OP_mov, {Operand::memAbs(Slots.IbTargetSlot, 4),
                        Operand::imm(int64_t(Exit.TargetTag), 4)});
      uint8_t Buf[MaxInstrLength];
      int Len = Mov->encode(StubPc, Buf, false);
      assert(Len == 10 && "unexpected arm stub mov length");
      M.mem().writeBlock(StubPc, Buf, unsigned(Len));
      StubPc += unsigned(Len);
      // jmp_ind [IbTargetSlot] (6 bytes)
      Instr *Jmp = Instr::createSynth(
          Tmp, OP_jmp_ind, {Operand::memAbs(Slots.IbTargetSlot, 4)});
      Len = Jmp->encode(StubPc, Buf, false);
      assert(Len == 6 && "unexpected arm stub jmp_ind length");
      M.mem().writeBlock(StubPc, Buf, unsigned(Len));
      Exit.StubJmpOff = StubPc - Base;
      Exit.StubJmpLen = unsigned(Len);
      StubPc += unsigned(Len);
      IbArmStubSites[Exit.stubJmpAddr(*Frag)] = Exit.ExitId;
    } else {
      // mov [ExitIdSlot], $exit_id  (10 bytes)
      Arena Tmp(256);
      Instr *Mov = Instr::createSynth(
          Tmp, OP_mov, {Operand::memAbs(Slots.ExitIdSlot, 4),
                        Operand::imm(int64_t(Exit.ExitId), 4)});
      uint8_t Buf[MaxInstrLength];
      int Len = Mov->encode(StubPc, Buf, false);
      assert(Len == 10 && "unexpected stub mov length");
      M.mem().writeBlock(StubPc, Buf, unsigned(Len));
      StubPc += unsigned(Len);
      // jmp dispatcher (5 bytes)
      Instr *Jmp = Instr::createSynth(
          Tmp, OP_jmp, {Operand::pc(Slots.DispatcherEntry)});
      Len = Jmp->encode(StubPc, Buf, false);
      assert(Len == 5 && "unexpected stub jmp length");
      M.mem().writeBlock(StubPc, Buf, unsigned(Len));
      Exit.StubJmpOff = StubPc - Base;
      Exit.StubJmpLen = unsigned(Len);
      StubPc += unsigned(Len);
    }
  }

  // OSR descriptors (traces only): one per plain direct exit, answering
  // "where does the application continue from this exit boundary" for a
  // thread left suspended at the CTI or inside its stub when this version
  // is superseded (Fragment::osrResumePc). Chain arms and custom-stub
  // exits are excluded — their stubs do IBL/client work whose mid-stub
  // state has no application-level equivalent.
  if (Kind == Fragment::Kind::Trace) {
    for (size_t Idx = 0; Idx != Pending.size(); ++Idx) {
      FragmentExit &Exit = Frag->Exits[Idx];
      if (Exit.ExitKind != FragmentExit::Kind::Direct || Exit.IsIbArm ||
          Pending[Idx].Custom)
        continue;
      OsrPoint P;
      P.CtiOff = Exit.CtiOff;
      P.StubOff = Exit.StubOff;
      P.StubEnd = Exit.StubJmpOff + Exit.StubJmpLen;
      // Bodies re-emitted from a decodeFragment list (sideline, client
      // replacement) carry *cache* pcs as instruction app addresses; a
      // resume pc must be a genuine application tag, so anything outside
      // the application region degrades to "no transfer at this point".
      uint32_t AppLimit = M.runtimeBase();
      P.ResumeApp = Exit.SourceAppPc < AppLimit ? Exit.SourceAppPc : 0;
      P.TakenApp = Exit.TargetTag < AppLimit ? Exit.TargetTag : 0;
      if (!P.ResumeApp && !P.TakenApp)
        continue;
      Frag->OsrPoints.push_back(P);
    }
    std::sort(Frag->OsrPoints.begin(), Frag->OsrPoints.end(),
              [](const OsrPoint &A, const OsrPoint &B) {
                return A.CtiOff < B.CtiOff;
              });
  }

  M.invalidateDecodeRange(Base, Base + BodySize + StubBytes);

  // Consistency metadata: which application bytes this body was translated
  // from (AppRanges — a store there invalidates the fragment) and where
  // each body instruction came from (CodeMap — translates an in-fragment
  // cache pc back to an application pc after invalidation). Only the first
  // instruction of a mangle group gets an application pc, so a resume
  // never lands mid-way through an expanded sequence; bundles map linearly
  // because their cache bytes are verbatim application bytes.
  const uint32_t AppSize = M.runtimeBase();
  AppPc PrevApp = 0;
  bool PrevValid = false;
  for (Instr &I : IL) {
    if (I.isLabel())
      continue;
    unsigned Off = Placement.offsetOf(&I);
    if (Off == ~0u)
      continue;
    AppPc App = I.appAddr();
    if (App && App < AppSize) {
      uint32_t Len = I.rawBitsValid() ? std::max(I.rawLength(), 1u)
                                      : unsigned(MaxInstrLength);
      Frag->AppRanges.push_back({App, App + Len});
    }
    bool First = App != 0 && !(PrevValid && App == PrevApp);
    Frag->CodeMap.push_back({Off, First ? App : 0, First && I.isBundle()});
    PrevApp = App;
    PrevValid = true;
  }
  std::sort(Frag->AppRanges.begin(), Frag->AppRanges.end(),
            [](const AppRange &A, const AppRange &B) { return A.Lo < B.Lo; });
  std::vector<AppRange> Merged;
  for (const AppRange &R : Frag->AppRanges) {
    if (!Merged.empty() && R.Lo <= Merged.back().Hi)
      Merged.back().Hi = std::max(Merged.back().Hi, R.Hi);
    else
      Merged.push_back(R);
  }
  Frag->AppRanges = std::move(Merged);
  CM.registerFragment(Frag);
  obsEvent(TraceEventKind::FragmentBuilt, Tag, Base);
  if (Prof)
    Prof->FragmentSizes.add(BodySize + StubBytes);
  return Frag;
}

//===----------------------------------------------------------------------===//
// Basic block building
//===----------------------------------------------------------------------===//

Fragment *Runtime::buildBasicBlock(AppPc Tag, bool Shadow) {
  ensureUnshared(); // block building emits into the cache
  BlockScan Scan;
  uint32_t AppSize = M.runtimeBase();
  if (!scanBlock(M.mem(), AppSize, Tag, Config.MaxBlockInstrs, Scan)) {
    M.fault("cannot decode basic block at tag " + std::to_string(Tag));
    return nullptr;
  }

  Arena BuildArena(1u << 14);
  InstrList IL(BuildArena);
  // The paper's default representation: one Level 0 bundle for the body
  // plus a fully decoded terminating CTI.
  if (!liftBlock(IL, M.mem(), AppSize, Tag, Config.MaxBlockInstrs,
                 Config.BbLift)) {
    M.fault("cannot lift basic block at tag " + std::to_string(Tag));
    return nullptr;
  }
  // Every path out of the block needs an exit: the fall-through of a
  // conditional branch, the continuation after a block-ending syscall, and
  // the artificial termination at the instruction cap all get an appended
  // jump to the fall-through application address.
  bool NeedFallThroughExit = !Scan.EndsInCti;
  if (Scan.EndsInCti && IL.last() && IL.last()->isCondBranch())
    NeedFallThroughExit = true;
  if (NeedFallThroughExit) {
    Instr *Jmp = Instr::createSynth(BuildArena, OP_jmp,
                                    {Operand::pc(Scan.FallThrough)});
    Jmp->setAppAddr(Scan.FallThrough);
    IL.append(Jmp);
  }

  chargeRuntime(M.cost().BlockBuildFixed +
                uint64_t(M.cost().BlockBuildPerInstr) * Scan.NumInstrs);

  if (TheClient) {
    TC->CurrentFragmentTag = Tag;
    TheClient->onBasicBlock(*this, Tag, IL);
  }
  // Level-of-detail cost: pay for whatever representation this list
  // actually reached — the runtime's forced lift level plus anything the
  // client decoded or synthesized (DESIGN.md, Ablation B).
  chargeRuntime(clientTransformCost(IL));

  mangleForCache(IL);
  Fragment *Frag = emitFragment(Tag, IL, Fragment::Kind::BasicBlock,
                                Scan.NumInstrs);
  if (!Frag)
    return nullptr;
  if (Shadow) {
    // Trace-recording stand-in: never registered, never linked.
    ShadowBbs[Tag] = Frag;
    ++S.ShadowBlocksBuilt;
    return Frag;
  }
  FragmentEntry &Entry = Table.slot(Tag);
  Frag->IsTraceHead = Config.EnableTraces && Entry.Marked;
  Entry.Frag = Frag;
  ++S.BasicBlocksBuilt;
  linkNewFragment(Frag);
  return Frag;
}

//===----------------------------------------------------------------------===//
// Linking
//===----------------------------------------------------------------------===//

void Runtime::patchRel32(uint32_t CtiAddr, unsigned CtiLen,
                         uint32_t NewTarget) {
  // Link metadata lives in Fragment objects; while a forked tenant still
  // shares the template's fragments, patching would corrupt the template.
  assert(!Tpl && "forked tenant must unshare before patching cache code");
  uint32_t Rel = NewTarget - (CtiAddr + CtiLen);
  M.mem().write32(CtiAddr + CtiLen - 4, Rel);
  M.invalidateDecodeRange(CtiAddr, CtiAddr + CtiLen);
}

void Runtime::linkExit(Fragment *From, FragmentExit &Exit, Fragment *To) {
  if (Exit.Linked || Exit.ExitKind != FragmentExit::Kind::Direct)
    return;
  assert(Exit.TargetTag == To->Tag && "linking exit to wrong fragment");
  obsEvent(TraceEventKind::FragmentLinked, From->Tag, To->Tag);
  if (Exit.AlwaysThroughStub)
    patchRel32(Exit.stubJmpAddr(*From), Exit.StubJmpLen, To->CacheAddr);
  else
    patchRel32(Exit.ctiAddr(*From), Exit.CtiLen, To->CacheAddr);
  Exit.Linked = true;
  Exit.LinkedTo = To;
  To->IncomingLinks.push_back(Exit.ExitId);
  ++S.LinksMade;
}

void Runtime::unlinkExit(Fragment *Owner, FragmentExit &Exit) {
  if (!Exit.Linked)
    return;
  obsEvent(TraceEventKind::FragmentUnlinked,
           Exit.LinkedTo ? Exit.LinkedTo->Tag : 0, Exit.stubAddr(*Owner));
  if (Exit.IsIbArm) {
    // An inline-chain arm lost its target: the arm now routes through its
    // stub back to the IBL, but the chain itself stays in place.
    ++S.IbInlineChainEvictions;
    obsEvent(TraceEventKind::IbInlineArmUnlink,
             Exit.LinkedTo ? Exit.LinkedTo->Tag : Exit.TargetTag,
             Exit.stubAddr(*Owner));
  }
  if (Exit.AlwaysThroughStub)
    patchRel32(Exit.stubJmpAddr(*Owner), Exit.StubJmpLen,
               Slots.DispatcherEntry);
  else
    patchRel32(Exit.ctiAddr(*Owner), Exit.CtiLen, Exit.stubAddr(*Owner));
  if (Exit.LinkedTo) {
    auto &Incoming = Exit.LinkedTo->IncomingLinks;
    for (size_t Idx = 0; Idx != Incoming.size(); ++Idx)
      if (Incoming[Idx] == Exit.ExitId) {
        Incoming[Idx] = Incoming.back();
        Incoming.pop_back();
        break;
      }
  }
  Exit.Linked = false;
  Exit.LinkedTo = nullptr;
  ++S.LinksRemoved;
}

void Runtime::unlinkOutgoing(Fragment *Frag) {
  for (FragmentExit &Exit : Frag->Exits)
    unlinkExit(Frag, Exit);
}

void Runtime::unlinkIncoming(Fragment *Frag) {
  std::vector<uint32_t> Incoming = Frag->IncomingLinks;
  for (uint32_t ExitId : Incoming) {
    auto [Owner, ExitIdx] = ExitRecords[ExitId];
    unlinkExit(Owner, Owner->Exits[ExitIdx]);
  }
  Frag->IncomingLinks.clear();
}

void Runtime::linkNewFragment(Fragment *Frag) {
  if (!Config.LinkDirectBranches)
    return;
  // Outgoing eager links to already-present fragments; incoming links form
  // lazily on each future dispatch through the stubs.
  for (FragmentExit &Exit : Frag->Exits) {
    if (Exit.ExitKind != FragmentExit::Kind::Direct)
      continue;
    Fragment *To = lookupFragment(Exit.TargetTag);
    if (!To)
      continue;
    if (To->IsTraceHead && Config.EnableTraces && !To->isTrace())
      continue; // trace heads stay unlinked so the dispatcher counts them
    linkExit(Frag, Exit, To);
  }
}

void Runtime::flushCaches() {
  ensureUnshared();
  if (inTraceGen())
    abortTrace();
  // Delete every live fragment: dissolve links, notify the client, drop
  // the lookup entries, and hand the space back. The old bytes stay in
  // place until their slots are reclaimed at a later allocation, so
  // execution still suspended inside flushed code remains well-defined:
  // stale exits resolve through their (persistent) exit records and fall
  // back to the dispatcher, and the manager never reclaims a slot a guard
  // pc still points into.
  std::vector<Fragment *> Victims;
  for (const auto &Frag : Fragments)
    if (!Frag->Doomed)
      Victims.push_back(Frag.get());
  for (Fragment *Victim : Victims)
    deleteFragment(Victim);
  CM.reclaimPending(collectGuardPcs());
  ++S.CacheFlushes;
  obsEvent(TraceEventKind::CacheFlushed, 0, uint32_t(Victims.size()));
}

void Runtime::deleteFragment(Fragment *Frag) {
  assert(!Tpl && "forked tenant must unshare before deleting fragments");
  if (Frag->Doomed)
    return;
  unlinkIncoming(Frag);
  unlinkOutgoing(Frag);
  Table.eraseFragment(Frag->Tag, Frag);
  auto SIt = ShadowBbs.find(Frag->Tag);
  if (SIt != ShadowBbs.end() && SIt->second == Frag)
    ShadowBbs.erase(SIt);
  retireBody(Frag);
  ++S.FragmentsDeleted;
  obsEvent(TraceEventKind::FragmentDeleted, Frag->Tag, Frag->CacheAddr);
}

void Runtime::retireBody(Fragment *Frag) {
  dropIbSites(Frag);
  CM.retireFragment(Frag);
  Frag->Doomed = true;
  if (TheClient)
    TheClient->onFragmentDeleted(*this, Frag->Tag);
}

//===----------------------------------------------------------------------===//
// Adaptive replacement (paper Section 3.4)
//===----------------------------------------------------------------------===//

InstrList *Runtime::decodeFragment(Arena &A, AppPc Tag) {
  Fragment *Frag = lookupFragment(Tag);
  if (!Frag)
    return nullptr;

  // Decode the fragment body instruction by instruction.
  struct Row {
    uint32_t Addr;
    Instr *I;
  };
  std::vector<Row> Rows;
  uint32_t Pc = Frag->CacheAddr;
  uint32_t End = Frag->CacheAddr + Frag->CodeSize;
  uint8_t Scratch[MaxInstrLength];
  while (Pc < End) {
    uint32_t Win = std::min<uint32_t>(End - Pc, MaxInstrLength);
    const uint8_t *P = M.mem().readWindow(Pc, Win, Scratch);
    DecodedInstr DI;
    if (!P || !decodeInstr(P, Win, Pc, DI))
      return nullptr;
    // Arena-copy the raw bits: P may point at scratch or a CoW page.
    const uint8_t *Bytes = A.copyBytes(P, DI.Length);
    Instr *I = Instr::createDecoded(A, DI, Bytes, Pc);
    Rows.push_back({Pc, I});
    Pc += DI.Length;
  }

  // Map direct CTI targets: intra-fragment -> labels; stubs/links -> the
  // exit's application target tag.
  auto *IL = new (A.allocate(sizeof(InstrList), alignof(InstrList)))
      InstrList(A);
  std::map<uint32_t, Instr *> Labels; // cache addr -> label instr
  for (Row &R : Rows) {
    if (!R.I->isCti() || R.I->isIndirectCti())
      continue;
    // Exit CTIs are identified by their recorded address, *not* by where
    // they currently point: a linked exit may point at another fragment —
    // or back into this one (a self-loop link). Translate them back to
    // their application target tag.
    bool IsExit = false;
    for (const FragmentExit &Exit : Frag->Exits) {
      if (Exit.ExitKind == FragmentExit::Kind::Direct &&
          Exit.ctiAddr(*Frag) == R.Addr) {
        R.I->setBranchTarget(Exit.TargetTag);
        R.I->setExitCti(true);
        if (Exit.IsIbArm)
          R.I->setIbArmCti(true);
        IsExit = true;
        break;
      }
    }
    if (IsExit)
      continue;
    AppPc Target = R.I->branchTarget();
    if (Target >= Frag->CacheAddr && Target < End) {
      if (!Labels.count(Target))
        Labels[Target] = Instr::createLabel(A);
      continue;
    }
    return nullptr; // direct CTI that is neither exit nor internal: corrupt
  }

  // Indirect CTIs carry the chain fall-through marker through a decode
  // round trip, so re-rewriting a fragment never mistakes an existing
  // chain's miss path for a fresh profiling site.
  for (Row &R : Rows) {
    if (!R.I->isCti() || !R.I->isIndirectCti())
      continue;
    for (const FragmentExit &Exit : Frag->Exits)
      if (Exit.ExitKind == FragmentExit::Kind::Indirect &&
          Exit.ctiAddr(*Frag) == R.Addr && Exit.IbMiss)
        R.I->setIbMissCti(true);
  }

  for (Row &R : Rows) {
    auto LIt = Labels.find(R.Addr);
    if (LIt != Labels.end())
      IL->append(LIt->second);
    IL->append(R.I);
  }
  // Bind label operands now that labels are placed.
  for (Row &R : Rows) {
    if (!R.I->isCti() || R.I->isIndirectCti() || R.I->isExitCti())
      continue;
    auto LIt = Labels.find(R.I->branchTarget());
    if (LIt != Labels.end())
      R.I->setBranchTargetLabel(LIt->second);
  }
  return IL;
}

Fragment *Runtime::supersede(Fragment *Old, InstrList &IL, bool Osr) {
  unsigned NumInstrs = 0;
  for (Instr &I : IL)
    if (!I.isLabel())
      ++NumInstrs;
  Fragment *New = emitFragment(Old->Tag, IL, Old->FragKind, NumInstrs);
  if (!New)
    return nullptr;
  New->IsTraceHead = Old->IsTraceHead;
  New->Version = Old->Version + 1;

  // "All links targeting and originating from the old fragment are
  // immediately modified to use the new fragment." Incoming links are
  // re-pointed; outgoing links of the old fragment are severed so that
  // execution still inside it leaves at its next branch.
  std::vector<uint32_t> Incoming = Old->IncomingLinks;
  for (uint32_t ExitId : Incoming) {
    auto [Owner, ExitIdx] = ExitRecords[ExitId];
    FragmentExit &Exit = Owner->Exits[ExitIdx];
    unlinkExit(Owner, Exit);
    if (Config.LinkDirectBranches)
      linkExit(Owner, Exit, New);
  }
  Old->IncomingLinks.clear();
  unlinkOutgoing(Old);
  Table.insert(Old->Tag, New);
  if (Osr)
    transferSuspended(Old, New);

  // The old bytes stay in place until no guard pc lies in their slot.
  // Emission above may already have evicted Old to make room; only retire
  // and notify once.
  if (!Old->Doomed)
    retireBody(Old);
  linkNewFragment(New);
  return New;
}

bool Runtime::replaceFragment(AppPc Tag, InstrList &IL) {
  ensureUnshared(); // rebuilds the table; look up only afterwards
  Fragment *Old = lookupFragment(Tag);
  if (!Old)
    return false;
  chargeRuntime(M.cost().FragmentReplaceCost + clientTransformCost(IL));
  if (!supersede(Old, IL, /*Osr=*/false))
    return false;
  ++S.FragmentsReplaced;
  return true;
}

//===----------------------------------------------------------------------===//
// Versioned publication + OSR (asynchronous sideline; paper Section 3.4's
// "concurrent thread for sideline optimization")
//===----------------------------------------------------------------------===//

bool Runtime::publishVersion(AppPc Tag, InstrList &IL) {
  ensureUnshared(); // rebuilds the table; look up only afterwards
  Fragment *Old = lookupFragment(Tag);
  if (!Old)
    return false;
  // Only the link-graph swap runs on the application thread — the
  // transform itself happened off the critical path — so publication is
  // cheaper than a synchronous replace, and charges no per-instruction
  // client transform cost.
  chargeRuntime(M.cost().SidelinePublishCost);
  Fragment *New = supersede(Old, IL, /*Osr=*/true);
  if (!New)
    return false;
  ++PubEpoch;
  Stats.counter("sideline_versions_published") += 1;
  obsEvent(TraceEventKind::SidelinePublished, Tag, New->CacheAddr);
  return true;
}

void Runtime::transferSuspended(Fragment *Old, Fragment *New) {
  // OSR: transfer every thread context suspended inside the old body —
  // including the active one when publication runs between quanta — over
  // to the new version. The exit-boundary descriptors (or the CodeMap)
  // translate its suspension pc to an application pc; resuming
  // AtDispatcher on that tag re-enters through the live version. A context
  // with no translation stays put — its guard pc keeps the old slot's
  // bytes alive until it leaves on its own.
  for (const auto &Ctx : Contexts) {
    if (Ctx->ResumePoint != ThreadContext::Resume::InCache)
      continue;
    uint32_t Pc = Ctx->ResumeCachePc;
    if (Pc < Old->CacheAddr ||
        Pc >= Old->CacheAddr + Old->CodeSize + Old->StubsSize)
      continue;
    // Preferred: direct in-cache transfer. The new body was emitted from
    // a decode of the old one, so its code map keys are the old body's
    // cache pcs — an exact hit lands the thread on the very instruction
    // it was about to execute, with no dispatcher round trip.
    uint32_t NewOff = New->offsetOfAppPc(Pc);
    if (NewOff != UINT32_MAX && NewOff < New->CodeSize) {
      Ctx->ResumeCachePc = New->CacheAddr + NewOff;
    } else {
      AppPc Resume = Old->osrResumePc(Pc - Old->CacheAddr);
      // The CodeMap fallback can answer with a cache pc for bodies that
      // were themselves re-emitted from decoded cache instructions — not a
      // tag.
      if (!Resume || Resume >= M.runtimeBase())
        continue;
      Ctx->ResumePoint = ThreadContext::Resume::AtDispatcher;
      Ctx->ResumeTag = Resume;
      Ctx->ResumeCachePc = 0;
    }
    Stats.counter("osr_transfers") += 1;
    obsEvent(TraceEventKind::OsrTransfer, Old->Tag, Pc);
  }
}
