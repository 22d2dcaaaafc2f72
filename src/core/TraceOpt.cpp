//===- core/TraceOpt.cpp - Speculative trace optimizer ---------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/TraceOpt.h"

#include "core/Analysis.h"
#include "core/Runtime.h"
#include "isa/Eflags.h"
#include "support/EventTrace.h"

#include <cassert>

using namespace rio;

//===----------------------------------------------------------------------===//
// The generalized value-tracking pass
//===----------------------------------------------------------------------===//

namespace {

bool isAbs(const Operand &Op) {
  return Op.isMem() && Op.getBase() == REG_NULL && Op.getIndex() == REG_NULL;
}

/// Conservative may-alias for two memory operands (lifted from the
/// redundant-load-removal client, which now delegates here). Distinct
/// absolute addresses cannot alias if their ranges are disjoint; a
/// runtime-private slot (absolute, above the application region) never
/// aliases anything an application instruction names relative to registers.
bool mayAlias(const Operand &A, const Operand &B, uint32_t RuntimeBase) {
  if (isAbs(A) && isAbs(B)) {
    uint32_t ALo = uint32_t(A.getDisp()), AHi = ALo + A.sizeBytes();
    uint32_t BLo = uint32_t(B.getDisp()), BHi = BLo + B.sizeBytes();
    return ALo < BHi && BLo < AHi;
  }
  auto isRuntimePrivate = [&](const Operand &Op) {
    return isAbs(Op) && uint32_t(Op.getDisp()) >= RuntimeBase;
  };
  if (isRuntimePrivate(A) != isRuntimePrivate(B))
    return false;
  return true; // register-relative: assume aliasing
}

/// True if writing register \p Written invalidates a fact involving
/// register \p Used (as the held register or in an address).
bool registersOverlap(Register Written, Register Used) {
  return containingGpr(Written) == containingGpr(Used);
}

class ValuePass {
public:
  ValuePass(InstrList &IL, uint32_t RuntimeBase, const ValuePassConfig &Cfg)
      : IL(IL), RuntimeBase(RuntimeBase), Cfg(Cfg) {
    for (const MemConstFact &F : Cfg.GuardedFacts)
      if (isAbs(F.Mem) && F.Mem.sizeBytes() == 4)
        Consts.push_back({F.Mem, F.Value, /*Guarded=*/true});
  }

  ValuePassStats run() {
    for (Instr *I = IL.first(); I;) {
      Instr *Next = I->next();
      step(I);
      I = Next;
    }
    return Stats;
  }

private:
  /// "Memory operand M currently equals register R."
  struct Binding {
    Operand Mem;
    Register Reg;
  };
  /// "Memory operand M currently holds constant V." Guarded facts came in
  /// through the config (established by an entry guard): they survive
  /// labels — see MemConstFact — where scan-discovered ones are dropped.
  struct MemConst {
    Operand Mem;
    uint32_t Value;
    bool Guarded;
  };
  /// "The store instruction S to operand M has not been observed yet" —
  /// a later store to the identical operand in the same straight-line run
  /// makes S dead.
  struct StoreFact {
    Operand Mem;
    Instr *Store;
  };

  Binding *findBinding(const Operand &Mem) {
    for (Binding &B : Bindings)
      if (B.Mem == Mem)
        return &B;
    return nullptr;
  }

  const MemConst *findConst(const Operand &Mem) {
    for (const MemConst &C : Consts)
      if (C.Mem == Mem)
        return &C;
    return nullptr;
  }

  void bind(const Operand &Mem, Register Reg) {
    if (Reg == REG_ESP || Reg == REG_NULL)
      return;
    // A load whose address uses its own destination (mov eax, [eax+4])
    // denotes a *different* address after the load: never bind those.
    if (Mem.usesRegister(Reg))
      return;
    if (findBinding(Mem))
      return;
    Bindings.push_back({Mem, Reg});
  }

  /// Register \p Reg was (possibly partially) written.
  void dropRegFacts(Register Reg) {
    for (size_t Idx = 0; Idx != Bindings.size();) {
      const Binding &B = Bindings[Idx];
      if (registersOverlap(Reg, B.Reg) || B.Mem.usesRegister(Reg)) {
        Bindings[Idx] = Bindings.back();
        Bindings.pop_back();
      } else {
        ++Idx;
      }
    }
    for (auto It = RegConst.begin(); It != RegConst.end();) {
      if (registersOverlap(Reg, It->first))
        It = RegConst.erase(It);
      else
        ++It;
    }
    // An address register changed: "same operand" no longer means "same
    // address" for these facts.
    for (size_t Idx = 0; Idx != Consts.size();) {
      if (Consts[Idx].Mem.usesRegister(Reg)) {
        Consts[Idx] = Consts.back();
        Consts.pop_back();
      } else {
        ++Idx;
      }
    }
    for (size_t Idx = 0; Idx != Stores.size();) {
      if (Stores[Idx].Mem.usesRegister(Reg)) {
        Stores[Idx] = Stores.back();
        Stores.pop_back();
      } else {
        ++Idx;
      }
    }
  }

  /// Memory at \p Mem was (possibly) written.
  void dropAliasFacts(const Operand &Mem) {
    for (size_t Idx = 0; Idx != Bindings.size();) {
      if (mayAlias(Bindings[Idx].Mem, Mem, RuntimeBase)) {
        Bindings[Idx] = Bindings.back();
        Bindings.pop_back();
      } else {
        ++Idx;
      }
    }
    for (size_t Idx = 0; Idx != Consts.size();) {
      if (mayAlias(Consts[Idx].Mem, Mem, RuntimeBase)) {
        Consts[Idx] = Consts.back();
        Consts.pop_back();
      } else {
        ++Idx;
      }
    }
    // An aliasing write supersedes (or partially overwrites) pending
    // stores: none of them is a dead-store candidate for a later identical
    // store any more.
    for (size_t Idx = 0; Idx != Stores.size();) {
      if (mayAlias(Stores[Idx].Mem, Mem, RuntimeBase)) {
        Stores[Idx] = Stores.back();
        Stores.pop_back();
      } else {
        ++Idx;
      }
    }
  }

  /// Memory at \p Mem was read: any pending store it may alias has been
  /// observed and must stay.
  void observeRead(const Operand &Mem) {
    for (size_t Idx = 0; Idx != Stores.size();) {
      if (mayAlias(Stores[Idx].Mem, Mem, RuntimeBase)) {
        Stores[Idx] = Stores.back();
        Stores.pop_back();
      } else {
        ++Idx;
      }
    }
  }

  void stepLoad(Instr *I, Opcode Op) {
    Operand Mem = I->getSrc(0);
    Register Dst = I->getDst(0).getReg();
    observeRead(Mem);
    if (Cfg.RemoveLoads) {
      if (Binding *B = findBinding(Mem)) {
        if (B->Reg == Dst) {
          // The register already holds the value: delete the load.
          IL.remove(I);
          ++Stats.LoadsRemoved;
          return;
        }
        // Forward from the holding register: reg-to-reg copy.
        Register Src = B->Reg;
        Instr *Copy = Instr::createSynth(
            IL.arena(), Op, {Operand::reg(Dst), Operand::reg(Src)});
        if (Copy) {
          Copy->setAppAddr(I->appAddr());
          IL.replace(I, Copy);
          ++Stats.LoadsForwarded;
          dropRegFacts(Dst);
          auto It = RegConst.find(Src);
          if (It != RegConst.end())
            RegConst[Dst] = It->second;
          bind(Mem, Dst);
          return;
        }
      }
    }
    if (Cfg.FoldConsts && Op == OP_mov && Mem.sizeBytes() == 4 &&
        isGpr32(Dst)) {
      if (const MemConst *C = findConst(Mem)) {
        uint32_t Value = C->Value;
        Instr *Imm = Instr::createSynth(
            IL.arena(), OP_mov,
            {Operand::reg(Dst), Operand::imm(int64_t(Value), 4)});
        if (Imm) {
          Imm->setAppAddr(I->appAddr());
          IL.replace(I, Imm);
          ++Stats.ConstsFolded;
          dropRegFacts(Dst);
          RegConst[Dst] = Value;
          bind(Mem, Dst); // the register holds [Mem]'s value too
          return;
        }
      }
    }
    dropRegFacts(Dst);
    bind(Mem, Dst);
  }

  void stepStore(Instr *I, Opcode Op) {
    Operand Mem = I->getDst(0);
    const Operand &Src = I->getSrc(0);
    // Dead-store elimination: a pending store to the *identical* operand
    // was never observed before being overwritten here — drop it.
    if (Cfg.EliminateDeadStores) {
      for (size_t Idx = 0; Idx != Stores.size(); ++Idx) {
        if (Stores[Idx].Mem == Mem) {
          IL.remove(Stores[Idx].Store);
          Stores[Idx] = Stores.back();
          Stores.pop_back();
          ++Stats.DeadStoresElided;
          break;
        }
      }
    }
    dropAliasFacts(Mem);
    if (Src.isReg()) {
      bind(Mem, Src.getReg());
      if (Op == OP_mov && Mem.sizeBytes() == 4) {
        auto It = RegConst.find(Src.getReg());
        if (It != RegConst.end())
          Consts.push_back({Mem, It->second, /*Guarded=*/false});
      }
    } else if (Src.isImm() && Op == OP_mov && Mem.sizeBytes() == 4) {
      Consts.push_back({Mem, uint32_t(Src.getImm()), /*Guarded=*/false});
    }
    Stores.push_back({Mem, I});
  }

  void step(Instr *I) {
    if (I->isLabel()) {
      // Internal join point (e.g. the hit label of an inlined check):
      // control may arrive from elsewhere, so path-dependent facts die.
      // Guarded constants hold on entry and are only ever killed, so they
      // hold on every path to here if they survived the linear scan.
      Bindings.clear();
      RegConst.clear();
      Stores.clear();
      for (size_t Idx = 0; Idx != Consts.size();) {
        if (!Consts[Idx].Guarded) {
          Consts[Idx] = Consts.back();
          Consts.pop_back();
        } else {
          ++Idx;
        }
      }
      return;
    }
    if (I->isBundle()) {
      // Unexamined code: assume the worst of everything.
      Bindings.clear();
      RegConst.clear();
      Consts.clear();
      Stores.clear();
      return;
    }

    Opcode Op = I->getOpcode();

    bool IsLoad = (Op == OP_mov || Op == OP_movsd) && I->numSrcs() == 1 &&
                  I->getSrc(0).isMem() && I->numDsts() == 1 &&
                  I->getDst(0).isReg();
    bool IsStore = (Op == OP_mov || Op == OP_movsd) && I->numDsts() == 1 &&
                   I->getDst(0).isMem() && I->numSrcs() == 1;

    if (IsLoad) {
      stepLoad(I, Op);
      return;
    }
    if (IsStore) {
      stepStore(I, Op);
      return;
    }

    // Constant definitions and copies keep the register constants alive.
    if (Op == OP_mov && I->numDsts() == 1 && I->getDst(0).isReg() &&
        isGpr32(I->getDst(0).getReg()) && I->numSrcs() == 1) {
      Register Dst = I->getDst(0).getReg();
      if (I->getSrc(0).isImm()) {
        dropRegFacts(Dst);
        RegConst[Dst] = uint32_t(I->getSrc(0).getImm());
        return;
      }
      if (I->getSrc(0).isReg() && isGpr32(I->getSrc(0).getReg())) {
        Register Src = I->getSrc(0).getReg();
        auto It = RegConst.find(Src);
        bool Known = It != RegConst.end();
        uint32_t Value = Known ? It->second : 0;
        dropRegFacts(Dst);
        if (Known)
          RegConst[Dst] = Value;
        return;
      }
    }

    // Generic instruction: memory reads observe pending stores; memory
    // writes invalidate aliases; register writes invalidate involved facts.
    for (unsigned Idx = 0, N = I->numSrcs(); Idx != N; ++Idx)
      if (I->getSrc(Idx).isMem())
        observeRead(I->getSrc(Idx));
    for (unsigned Idx = 0, N = I->numDsts(); Idx != N; ++Idx) {
      const Operand &Dst = I->getDst(Idx);
      if (Dst.isMem())
        dropAliasFacts(Dst);
      else if (Dst.isReg())
        dropRegFacts(Dst.getReg());
    }
    // Control may leave at a CTI: the exit path can observe memory, so
    // nothing pending before it is a dead store. Register and constant
    // facts describe the fall-through path and survive.
    if (I->isCti())
      Stores.clear();
  }

  InstrList &IL;
  uint32_t RuntimeBase;
  const ValuePassConfig &Cfg;
  ValuePassStats Stats;
  std::vector<Binding> Bindings;
  std::vector<MemConst> Consts;
  std::vector<StoreFact> Stores;
  std::map<Register, uint32_t> RegConst;
};

} // namespace

ValuePassStats rio::runValuePass(InstrList &IL, uint32_t RuntimeBase,
                                 const ValuePassConfig &Cfg) {
  return ValuePass(IL, RuntimeBase, Cfg).run();
}

unsigned rio::reduceIncDec(InstrList &IL) {
  unsigned Converted = 0;
  for (Instr *I = IL.first(); I;) {
    Instr *Next = I->next();
    if (!I->isLabel() && !I->isBundle()) {
      Opcode Op = I->getOpcode();
      if ((Op == OP_inc || Op == OP_dec) && Next &&
          !(liveEflagsAt(Next) & EFLAGS_READ_CF)) {
        Instr *Repl = Instr::createSynth(
            IL.arena(), Op == OP_inc ? OP_add : OP_sub,
            {I->getDst(0), Operand::imm(1, 1)});
        if (Repl) {
          Repl->setPrefixes(I->getPrefixes());
          Repl->setAppAddr(I->appAddr());
          IL.replace(I, Repl);
          ++Converted;
        }
      }
    }
    I = Next;
  }
  return Converted;
}

//===----------------------------------------------------------------------===//
// TraceOptClient
//===----------------------------------------------------------------------===//

void TraceOptClient::onInit(Runtime &RT) {
  if (Inner)
    Inner->onInit(RT);
}
void TraceOptClient::onExit(Runtime &RT) {
  if (Inner)
    Inner->onExit(RT);
}
void TraceOptClient::onThreadInit(Runtime &RT) {
  if (Inner)
    Inner->onThreadInit(RT);
}
void TraceOptClient::onThreadExit(Runtime &RT) {
  if (Inner)
    Inner->onThreadExit(RT);
}
void TraceOptClient::onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) {
  if (Inner)
    Inner->onBasicBlock(RT, Tag, Block);
}
void TraceOptClient::onFragmentDeleted(Runtime &RT, AppPc Tag) {
  if (Inner)
    Inner->onFragmentDeleted(RT, Tag);
}
bool TraceOptClient::onIndirectResolved(Runtime &RT, int BranchOp,
                                        AppPc Target) {
  return Inner ? Inner->onIndirectResolved(RT, BranchOp, Target) : true;
}
Client::EndTrace TraceOptClient::onEndTrace(Runtime &RT, AppPc TraceTag,
                                            AppPc NextTag) {
  return Inner ? Inner->onEndTrace(RT, TraceTag, NextTag)
               : EndTrace::Default;
}

void TraceOptClient::onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) {
  if (Inner)
    Inner->onTrace(RT, Tag, Trace);
  ValuePassConfig Cfg;
  Cfg.RemoveLoads = Opts.RemoveLoads;
  Cfg.FoldConsts = Opts.FoldConsts;
  Cfg.EliminateDeadStores = Opts.EliminateDeadStores;
  TransformStats += runValuePass(Trace, RT.machine().runtimeBase(), Cfg);
  // inc -> add pays off only where inc/dec carry a surcharge (Pentium 4
  // in the cost model); elsewhere leave the shorter encoding alone.
  if (Opts.StrengthReduce && RT.machine().cost().IncDecExtra > 0)
    IncDecReduced += reduceIncDec(Trace);
  ++TracesOptimized;
}

bool TraceOptClient::observe(Runtime &RT, AppPc Tag, uint64_t TraceSamples) {
  (void)TraceSamples;
  if (!Opts.Speculate || Opts.MaxGuards == 0)
    return false;
  if (RT.traceoptBlacklisted(Tag))
    return false;
  Fragment *Frag = RT.lookupFragment(Tag);
  // Deoptimization rebuilds from the recorded block list; a trace without
  // one could never bail out, so never speculate on it.
  if (!Frag || !Frag->isTrace() || Frag->TraceBlocks.empty())
    return false;
  SpecState &S = Spec[{&RT, Tag}];
  if (!S.Scanned) {
    // First sample of this tag: collect its candidate sites — 4-byte loads
    // from absolute application addresses (runtime-private slots change
    // under the runtime's feet by design; never speculate on those).
    S.Scanned = true;
    Arena A(1u << 14);
    if (InstrList *IL = RT.decodeFragment(A, Tag)) {
      uint32_t Base = RT.machine().runtimeBase();
      for (Instr &I : *IL) {
        if (I.isLabel() || I.isBundle())
          continue;
        if (I.getOpcode() != OP_mov || I.numSrcs() != 1 ||
            !I.getSrc(0).isMem() || I.numDsts() != 1 || !I.getDst(0).isReg())
          continue;
        const Operand &Mem = I.getSrc(0);
        if (!isGpr32(I.getDst(0).getReg()) || !isAbs(Mem) ||
            Mem.sizeBytes() != 4)
          continue;
        uint32_t Addr = uint32_t(Mem.getDisp());
        if (Addr >= Base)
          continue;
        bool Seen = false;
        for (const SpecSite &Site : S.Sites)
          Seen |= Site.Addr == Addr;
        if (!Seen)
          S.Sites.push_back({Addr, 0, 0});
      }
    }
  }
  if (S.Sites.empty())
    return false;
  // Update the per-site streaks against live memory.
  bool AnyReady = false;
  for (SpecSite &Site : S.Sites) {
    uint32_t Now = 0;
    if (!RT.machine().mem().read32(Site.Addr, Now))
      continue;
    if (Site.Streak != 0 && Now == Site.LastVal) {
      ++Site.Streak;
    } else {
      Site.LastVal = Now;
      Site.Streak = 1;
    }
    AnyReady |= Site.Streak >= Opts.StableSamples;
  }
  if (!AnyReady)
    return false;
  if (S.AppliedVersion == int64_t(Frag->Version))
    return false; // the live body already carries these guards
  if (S.RequestedVersion == int64_t(Frag->Version))
    return false; // a reopt request for this body is already in flight
  S.RequestedVersion = int64_t(Frag->Version);
  return true;
}

void TraceOptClient::onSidelinePublish(Runtime &RT, AppPc Tag,
                                       InstrList &IL) {
  if (Inner)
    Inner->onSidelinePublish(RT, Tag, IL);
  if (!Opts.Speculate || RT.traceoptBlacklisted(Tag))
    return;
  auto It = Spec.find({&RT, Tag});
  if (It == Spec.end())
    return;
  SpecState &S = It->second;
  Fragment *Live = RT.lookupFragment(Tag);
  if (!Live || !Live->isTrace() || Live->TraceBlocks.empty())
    return;

  // Re-validate each planned site against machine memory *now* — a guard
  // on a value that already moved would fail on the first iteration — and
  // keep only sites the body still loads (the non-speculative tier may
  // have removed the redundant ones; one load must remain to fold).
  std::vector<SpecSite> Ready;
  for (const SpecSite &Site : S.Sites) {
    if (Site.Streak < Opts.StableSamples)
      continue;
    uint32_t Now = 0;
    if (!RT.machine().mem().read32(Site.Addr, Now) || Now != Site.LastVal)
      continue;
    Operand SiteMem = Operand::memAbs(Site.Addr, 4);
    bool StillLoaded = false;
    for (Instr &I : IL) {
      if (I.isLabel() || I.isBundle())
        continue;
      if (I.getOpcode() == OP_mov && I.numSrcs() == 1 &&
          I.getSrc(0) == SiteMem) {
        StillLoaded = true;
        break;
      }
    }
    if (!StillLoaded)
      continue;
    Ready.push_back(Site);
    if (Ready.size() >= Opts.MaxGuards)
      break;
  }
  if (Ready.empty())
    return;

  Arena &A = IL.arena();
  Operand Ecx = Operand::reg(REG_ECX);
  // Slot 6: slots 0/1 belong to mangling and trace checks, slot 2 to the
  // IB-dispatch client, slot 7 to the inline indirect-branch chains.
  Operand G = Operand::memAbs(RT.slots().SpillSlots + 24, 4);

  // One flag-neutral check per site, the inline-chain idiom: spill ecx,
  // load the site, lea-subtract the expected value, jecxz over the
  // bail-out. The bail-out restores ecx and jumps to the trace's own head
  // tag; setGuardCti keeps that exit permanently unlinked so a failure
  // always surfaces at the dispatcher (which deoptimizes). Guards precede
  // every application instruction, so bailing to the head re-runs nothing.
  InstrList Guards(A);
  auto add = [&](Instr *I) {
    assert(I && "failed to create guard instruction");
    Guards.append(I);
    return I;
  };
  ValuePassConfig Cfg;
  Cfg.RemoveLoads = Opts.RemoveLoads;
  Cfg.FoldConsts = true;
  Cfg.EliminateDeadStores = Opts.EliminateDeadStores;
  for (const SpecSite &Site : Ready) {
    Operand SiteMem = Operand::memAbs(Site.Addr, 4);
    add(Instr::createSynth(A, OP_mov, {G, Ecx}));
    add(Instr::createSynth(A, OP_mov, {Ecx, SiteMem}));
    add(Instr::createSynth(
        A, OP_lea, {Ecx, Operand::mem(REG_ECX, -int32_t(Site.LastVal), 4)}));
    Instr *Ok = Instr::createLabel(A);
    Instr *Jecxz = Instr::createSynth(A, OP_jecxz, {Operand::pc(0)});
    Jecxz->setBranchTargetLabel(Ok);
    add(Jecxz);
    add(Instr::createSynth(A, OP_mov, {Ecx, G}));
    Instr *Bail = add(Instr::createSynth(A, OP_jmp, {Operand::pc(Tag)}));
    Bail->setGuardCti(true);
    Guards.append(Ok);
    add(Instr::createSynth(A, OP_mov, {Ecx, G}));
    Cfg.GuardedFacts.push_back({SiteMem, Site.LastVal});
  }
  unsigned NumGuards = unsigned(Ready.size());

  // Fold everything the guards pin across the body FIRST, while the list
  // still holds only application instructions. The guards must go in
  // afterwards: their comparison loads name the guarded sites, and the
  // pass would fold those to the expected constant too — a guard that
  // loads its own immediate compares 0 to 0 and can never fail.
  PublishStats += runValuePass(IL, RT.machine().runtimeBase(), Cfg);

  if (Instr *First = IL.first()) {
    for (Instr *I = Guards.first(); I;) {
      Instr *Next = I->next();
      Guards.remove(I);
      IL.insertBefore(First, I);
      I = Next;
    }
  } else {
    IL.splice(Guards);
  }

  // Collapse the per-guard ecx spill/restore brackets into one.
  collapseRedundantSpills(IL);

  GuardsEmitted += NumGuards;
  ++SpeculationsApplied;
  S.AppliedVersion = int64_t(Live->Version) + 1; // publishVersion's number
  RT.stats().counter("traceopt_speculations") += 1;
  RIO_TRACE(RT.eventTrace(), RT.machine().cycles(), RT.activeContext().Tid,
            TraceEventKind::TraceOptApplied, Tag, NumGuards);
}
