//===- core/TraceBuilder.cpp - NET trace building ----------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace construction (paper Sections 2 and 3.5). Certain basic blocks are
/// trace heads — targets of backward branches, exits of existing traces, or
/// blocks marked by the client. A counter per head is incremented on each
/// dispatcher arrival; at the threshold the runtime enters trace generation
/// mode and stitches the subsequently executed blocks into a trace,
/// consulting the client's end-trace hook before each extension. Indirect
/// branches crossed by the trace are inlined behind a compare against the
/// recorded next block, with an inline miss path (jecxz is rel8-only) that
/// hands the real target to the IBL — preserving linear control flow.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Analysis.h"
#include "ir/Build.h"
#include "support/Compiler.h"

using namespace rio;

void Runtime::noteDispatch(Fragment *Frag) {
  if (!Config.EnableTraces)
    return;
  if (inTraceGen()) {
    traceGenStep(Frag->Tag);
    return;
  }
  if (!Frag->IsTraceHead || Frag->isTrace())
    return;
  if (++Table.slot(Frag->Tag).HeadCounter < Config.TraceThreshold)
    return;
  // Recording unlinks fragments and ends in trace emission: a forked
  // tenant takes ownership of the shared cache before the first mutation.
  // (The head-counter bump above survives — unsharing overlays the
  // tenant's counters onto the rebuilt table.)
  ensureUnshared();
  // Hot: enter trace generation mode starting at this head. Recording is
  // per-thread state: in shared-cache mode another thread may be recording
  // its own trace concurrently (each observes only its own dispatches).
  TC->TraceGenActive = true;
  TC->TraceGenHead = Frag->Tag;
  TC->TraceGenBlocks.clear();
  TC->TraceGenBlocks.push_back(Frag->Tag);
  TC->TraceGenInstrs = Frag->NumInstrs;
  ++S.TraceGenerationsStarted;
  obsEvent(TraceEventKind::TraceGenStarted, Frag->Tag);
}

void Runtime::traceGenStep(AppPc NextTag) {
  assert(TC->TraceGenActive && !TC->TraceGenBlocks.empty() &&
         "trace-gen step without an active trace");

  bool EndNow;
  Client::EndTrace Decision =
      TheClient ? TheClient->onEndTrace(*this, TC->TraceGenHead, NextTag)
                : Client::EndTrace::Default;
  // Hard caps apply regardless of the client's wishes.
  bool AtCap = TC->TraceGenBlocks.size() >= MaxTraceBlocks ||
               TC->TraceGenInstrs >= 4 * Config.MaxBlockInstrs;
  switch (Decision) {
  case Client::EndTrace::End:
    EndNow = true;
    break;
  case Client::EndTrace::Continue:
    EndNow = AtCap;
    break;
  case Client::EndTrace::Default: {
    // Dynamo's NET rule: stop at a backward (taken direct) branch or upon
    // reaching an existing trace or trace head. Indirect transfers (e.g.
    // returns) do not end a trace by direction — inlining them is the
    // point of trace building.
    Fragment *Next = lookupFragment(NextTag);
    EndNow = AtCap || NextTag == TC->TraceGenHead ||
             (Next && (Next->isTrace() || Next->IsTraceHead)) ||
             TC->LastTransitionBackwardBranch;
    break;
  }
  default:
    RIO_UNREACHABLE("bad end-trace decision");
  }

  if (!EndNow) {
    TC->TraceGenBlocks.push_back(NextTag);
    if (Fragment *Next = lookupFragment(NextTag))
      TC->TraceGenInstrs += Next->NumInstrs;
    else
      TC->TraceGenInstrs += 8; // block not built yet; estimate
    return;
  }
  finalizeTrace();
}

void Runtime::abortTrace() {
  if (TC->TraceGenActive)
    obsEvent(TraceEventKind::TraceAborted, TC->TraceGenHead);
  TC->TraceGenActive = false;
  TC->TraceGenBlocks.clear();
  Table.slot(TC->TraceGenHead).HeadCounter = 0;
}

void Runtime::demoteHead(AppPc Head) {
  FragmentEntry &Entry = Table.slot(Head);
  if (Entry.Frag)
    Entry.Frag->IsTraceHead = false;
  Entry.Marked = false;
}

void Runtime::finalizeTrace() {
  TC->TraceGenActive = false;
  AppPc Head = TC->TraceGenHead;
  std::vector<AppPc> Blocks = std::move(TC->TraceGenBlocks);
  TC->TraceGenBlocks.clear();
  Table.slot(Head).HeadCounter = 0;

  // The trace's list lives only until it is emitted.
  Arena BuildArena(1u << 14);
  unsigned NumInstrs = 0;
  InstrList *IL = buildTraceList(BuildArena, Blocks, NumInstrs);
  if (!IL) {
    // Could not materialize (application code changed / undecodable).
    demoteHead(Head);
    return;
  }

  chargeRuntime(uint64_t(M.cost().TraceBuildPerInstr) * NumInstrs +
                M.cost().BlockBuildFixed);

  if (TheClient) {
    TC->CurrentFragmentTag = Head;
    TheClient->onTrace(*this, Head, *IL);
    chargeRuntime(clientTransformCost(*IL));
  }

  mangleForCache(*IL);
  FragmentPlan Plan;
  if (!planFragment(*IL, Plan))
    return;
  if (!CM.fits(Fragment::Kind::Trace, Plan.size())) {
    // Larger than the whole trace cache: its blocks keep running from the
    // block cache, head included.
    Stats.counter("traces_abandoned") += 1;
    demoteHead(Head);
    return;
  }

  Fragment *Old = lookupFragment(Head);
  if (Old)
    deleteFragment(Old);
  Fragment *Trace = emitFragment(Head, Plan, Fragment::Kind::Trace, NumInstrs);
  if (!Trace)
    return;
  Trace->IsTraceHead = false;
  FragmentEntry &Entry = Table.slot(Head);
  Entry.Marked = false;
  Entry.Frag = Trace;
  linkNewFragment(Trace);
  ++S.TracesBuilt;
  S.TraceBlocksTotal += Blocks.size();
  obsEvent(TraceEventKind::TraceBuilt, Head, uint32_t(Blocks.size()));
  if (Prof)
    Prof->TraceLengths.add(Blocks.size());
}

//===----------------------------------------------------------------------===//
// Trace materialization
//===----------------------------------------------------------------------===//

InstrList *Runtime::buildTraceList(Arena &A, const std::vector<AppPc> &Blocks,
                                   unsigned &NumInstrs) {
  auto *IL =
      new (A.allocate(sizeof(InstrList), alignof(InstrList))) InstrList(A);

  uint32_t AppSize = M.runtimeBase();
  NumInstrs = 0;

  // Indirect-branch inlining happens as a post-pass once the whole trace
  // body exists, so that the eflags-liveness analysis can see the real
  // continuation (and skip the flag save/restore when flags are dead).
  struct PendingInline {
    Instr *Cti;
    AppPc NextTag;
  };
  std::vector<PendingInline> Inlines;

  for (size_t BlockIdx = 0; BlockIdx != Blocks.size(); ++BlockIdx) {
    AppPc Tag = Blocks[BlockIdx];
    bool IsLast = BlockIdx + 1 == Blocks.size();
    AppPc NextTag = IsLast ? 0 : Blocks[BlockIdx + 1];

    InstrList BlockIL(A);
    BlockScan Scan;
    // "When performing optimizations, DynamoRIO fully decodes all
    // instructions in a trace's InstrList, but keeps their raw bit
    // pointers valid (Level 3)."
    if (!liftBlock(BlockIL, M.mem(), AppSize, Tag, Config.MaxBlockInstrs,
                   LiftLevel::Decoded3, Scan))
      return nullptr;
    NumInstrs += Scan.NumInstrs;

    Instr *Term = BlockIL.last();
    bool TermIsCti = Scan.EndsInCti;

    if (!IsLast) {
      if (!TermIsCti) {
        // Syscall-ended or capped block: execution fell through to the
        // next block; nothing to stitch.
        if (Scan.FallThrough != NextTag)
          return nullptr; // recorded successor does not match fall-through
      } else if (Term->isCondBranch()) {
        AppPc Taken = Term->branchTarget();
        if (Taken == NextTag) {
          if (Term->getOpcode() == OP_jecxz) {
            // jecxz has no inverse; branch around an exit jump instead.
            Instr *OnTrace = Instr::createLabel(A);
            Term->setBranchTargetLabel(OnTrace);
            Instr *Exit = Instr::createSynth(
                A, OP_jmp, {Operand::pc(Scan.FallThrough)});
            Exit->setAppAddr(Term->appAddr());
            BlockIL.append(Exit);
            BlockIL.append(OnTrace);
          } else {
            // Invert so the on-trace path falls through: superior layout
            // is the core benefit of traces.
            Opcode Inverted = invertCondBranch(Term->getOpcode());
            Instr *NewBr = Instr::createSynth(
                A, Inverted, {Operand::pc(Scan.FallThrough)});
            NewBr->setAppAddr(Term->appAddr());
            BlockIL.replace(Term, NewBr);
          }
          ++S.TraceBranchesInverted;
        } else if (Scan.FallThrough != NextTag) {
          return nullptr; // conditional branch went somewhere off-trace
        }
      } else if (Term->getOpcode() == OP_jmp) {
        if (Term->branchTarget() != NextTag)
          return nullptr; // jmp not to the recorded next block
        BlockIL.remove(Term); // elide: blocks become adjacent
        ++S.TraceJmpsElided;
      } else if (Term->getOpcode() == OP_call) {
        // Inline the call: push the application return address and fall
        // through into the callee (the next block).
        if (Term->branchTarget() != NextTag)
          return nullptr; // call not to the recorded next block
        AppPc Ret = Term->appAddr() + Term->rawLength();
        Instr *Push =
            Instr::createSynth(A, OP_push, {Operand::imm(int64_t(Ret), 4)});
        Push->setAppAddr(Term->appAddr());
        BlockIL.replace(Term, Push);
        ++S.TraceCallsInlined;
      } else if (Term->isIndirectCti()) {
        // Inline the hot target behind a compare (paper Section 3 / 4.3).
        Inlines.push_back({Term, NextTag});
      } else {
        return nullptr; // unexpected terminator mid-trace
      }
    } else {
      // Last block: keep its terminator; make sure every path exits.
      if (!TermIsCti || Term->isCondBranch()) {
        Instr *Jmp = Instr::createSynth(A, OP_jmp,
                                        {Operand::pc(Scan.FallThrough)});
        Jmp->setAppAddr(Term ? Term->appAddr() : Tag);
        BlockIL.append(Jmp);
      }
    }

    IL->splice(BlockIL);
  }

  for (const PendingInline &PI : Inlines)
    inlineIndirectCheck(*IL, PI.Cti, PI.NextTag);
  return IL;
}

void Runtime::loadIndirectTarget(Arena &A, Instr &Cti,
                                 const std::function<void(Instr *)> &Add) {
  Operand Ecx = Operand::reg(REG_ECX);
  switch (Opcode Op = Cti.getOpcode()) {
  case OP_ret:
  case OP_ret_imm: {
    Add(Instr::createSynth(A, OP_mov, {Ecx, Operand::mem(REG_ESP, 0, 4)}));
    int32_t Pop = 4;
    if (Op == OP_ret_imm)
      Pop += int32_t(Cti.getSrc(0).getImm());
    Add(Instr::createSynth(
        A, OP_lea, {Operand::reg(REG_ESP), Operand::mem(REG_ESP, Pop, 4)}));
    break;
  }
  case OP_jmp_ind:
  case OP_call_ind:
    Add(Instr::createSynth(A, OP_mov, {Ecx, Cti.getSrc(0)}));
    break;
  default:
    RIO_UNREACHABLE("not an indirect CTI");
  }
}

void Runtime::inlineIndirectCheck(InstrList &IL, Instr *IndirectCti,
                                  AppPc NextTag) {
  Arena &A = IL.arena();

  // The check must not touch eflags: the branch may leave the trace to an
  // unknown continuation where flags are live. Like DynamoRIO, we build
  // the equality test out of lea (no flags) and jecxz (reads only ecx):
  //
  //   mov  [spill], ecx
  //   mov  ecx, <target>          ; pop for ret / load for jmp*/call*
  //   lea  ecx, [ecx - NextTag]
  //   jecxz match
  //   lea  ecx, [ecx + NextTag]   ; miss: recover the real target
  //   mov  [IbTargetSlot], ecx
  //   mov  ecx, [spill]
  //   jmp  *[IbTargetSlot]        ; to the IBL
  // match:
  //   mov  ecx, [spill]
  //   <trace continues>
  Operand Ecx = Operand::reg(REG_ECX);
  Operand EcxMem = Operand::mem(REG_ECX, -int32_t(NextTag), 4);
  Operand EcxMemBack = Operand::mem(REG_ECX, int32_t(NextTag), 4);
  Operand Spill = Operand::memAbs(Slots.SpillSlots + 4, 4);
  Operand TargetSlot = Operand::memAbs(Slots.IbTargetSlot, 4);
  AppPc Site = IndirectCti->appAddr();

  auto add = [&](Instr *I) {
    assert(I && "failed to create check instruction");
    I->setAppAddr(Site);
    IL.insertBefore(IndirectCti, I);
    return I;
  };

  add(Instr::createSynth(A, OP_mov, {Spill, Ecx}));
  loadIndirectTarget(A, *IndirectCti, add);
  if (IndirectCti->getOpcode() == OP_call_ind) {
    // Push after computing the target (hardware operand order; the operand
    // may address through esp).
    AppPc Ret = IndirectCti->appAddr() + IndirectCti->rawLength();
    add(Instr::createSynth(A, OP_push, {Operand::imm(int64_t(Ret), 4)}));
  }

  add(Instr::createSynth(A, OP_lea, {Ecx, EcxMem}));
  Instr *MatchLabel = Instr::createLabel(A);
  Instr *Jecxz = Instr::createSynth(A, OP_jecxz, {Operand::pc(0)});
  Jecxz->setBranchTargetLabel(MatchLabel);
  Jecxz->setAppAddr(Site);
  IL.insertBefore(IndirectCti, Jecxz);

  // Miss path (falls through from jecxz).
  add(Instr::createSynth(A, OP_lea, {Ecx, EcxMemBack}));
  add(Instr::createSynth(A, OP_mov, {TargetSlot, Ecx}));
  add(Instr::createSynth(A, OP_mov, {Ecx, Spill}));
  add(Instr::createSynth(A, OP_jmp_ind, {TargetSlot}));

  // Hit path.
  IL.insertBefore(IndirectCti, MatchLabel);
  add(Instr::createSynth(A, OP_mov, {Ecx, Spill}));

  IL.remove(IndirectCti);
  ++S.IndirectBranchesInlined;
}
