//===- vm/Machine.cpp - The simulated machine -------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "vm/Syscall.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>

using namespace rio;

Machine::Machine(const MachineConfig &Config)
    : Config(Config), Mem(Config.AppRegionSize + Config.RuntimeRegionSize) {
  LineState.resize(Mem.size() / WriteWatchLine + 1);
  DecodeCache.resize(DecodeCacheLines);
  CurCpu = &Threads[CurThread].Cpu;
}

Machine::Machine(const Machine &Template)
    : Config(Template.Config), Mem(Template.Mem), Threads(Template.Threads),
      CurThread(Template.CurThread), Pred(Template.Pred),
      Status(Template.Status), ExitCode(Template.ExitCode),
      FaultReason(Template.FaultReason), Output(Template.Output),
      Cycles(Template.Cycles), InstrsExecuted(Template.InstrsExecuted),
      LastPc(Template.LastPc), ResetPc(Template.ResetPc),
      ResetSp(Template.ResetSp), DecodeCache(Template.DecodeCache),
      LineState(Template.LineState),
      CodeWrites(Template.CodeWrites), StopPcs(Template.StopPcs) {
  CurCpu = &Threads[CurThread].Cpu;
}

void Machine::resetForRun() {
  Threads.assign(1, Thread());
  CurThread = 0;
  CurCpu = &Threads[0].Cpu;
  CurCpu->Pc = ResetPc;
  CurCpu->writeGpr32(REG_ESP, ResetSp);
  Status = RunStatus::Running;
  ExitCode = 0;
  FaultReason.clear();
}

void Machine::fault(const std::string &Reason) {
  Status = RunStatus::Faulted;
  FaultReason = Reason;
}

//===----------------------------------------------------------------------===//
// Pre-decoding
//===----------------------------------------------------------------------===//

namespace {

/// True if \p Op may be accessed as \p U: the register-class, operand-kind
/// and address-register invariants the interpreter relies on. A null
/// operand is accepted wherever the old per-access paths failed softly
/// (the access then faults the guest as before).
bool usable(const Operand &Op, Use U) {
  switch (U) {
  case Use::None:
    return true;
  case Use::Target:
    return Op.isPc();
  case Use::Imm:
    return Op.isImm();
  default:
    break;
  }
  if (Op.isMem())
    return (Op.getBase() == REG_NULL || isGpr32(Op.getBase())) &&
           (Op.getIndex() == REG_NULL || isGpr32(Op.getIndex()));
  if (U == Use::Addr)
    return false;
  if (Op.isNull())
    return true;
  switch (U) {
  case Use::Read32:
    return Op.isImm() || Op.isPc() ||
           (Op.isReg() && (isGpr32(Op.getReg()) || isGpr8(Op.getReg())));
  case Use::Write32:
    return Op.isReg() && isGpr32(Op.getReg());
  case Use::Read8:
    return Op.isImm() || (Op.isReg() && isGpr8(Op.getReg()));
  case Use::Write8:
    return Op.isReg() && isGpr8(Op.getReg());
  case Use::ReadF64:
  case Use::WriteF64:
    return Op.isReg() && isXmm(Op.getReg());
  default:
    return false;
  }
}

PredecodedOp predecodeOp(const Operand &Op) {
  PredecodedOp P;
  switch (Op.kind()) {
  case Operand::RegKind: {
    Register Reg = Op.getReg();
    if (isXmm(Reg)) {
      P.K = PredecodedOp::Xmm;
      P.Reg = uint8_t(Reg - REG_XMM0);
    } else if (isGpr8(Reg)) {
      P.K = PredecodedOp::Gpr8;
      P.Reg = uint8_t(containingGpr(Reg) - REG_EAX);
      P.Aux = isHighByte(Reg) ? 8 : 0;
    } else {
      P.K = PredecodedOp::Gpr;
      P.Reg = uint8_t(Reg - REG_EAX);
    }
    break;
  }
  case Operand::ImmKind:
    P.K = PredecodedOp::Imm;
    P.Value = uint32_t(Op.getImm());
    break;
  case Operand::PcKind:
    P.K = PredecodedOp::Imm;
    P.Value = Op.getPc();
    break;
  case Operand::MemKind:
    P.K = PredecodedOp::Mem;
    if (Op.getBase() != REG_NULL)
      P.Reg = uint8_t(Op.getBase() - REG_EAX);
    if (Op.getIndex() != REG_NULL)
      P.Index = uint8_t(Op.getIndex() - REG_EAX);
    P.Aux = Op.getScale();
    P.Value = uint32_t(Op.getDisp());
    break;
  default:
    break;
  }
  return P;
}

/// The handlers Machine::run() dispatches on, in the order of its label
/// table; PredecodedInstr::Form holds a record's handler id. The
/// specialized forms read and write register-file slots, immediates and
/// memory directly: R = gpr, I = immediate, M = memory, X = xmm, in
/// assembly operand order. The generic cases reach their operands through
/// read32() and friends, each a switch on the operand kind, and serve one
/// opcode or a family of them. Invalid, id 0 and so the form of an
/// all-zero record, faults.
#define RIO_FORMS(X)                                                           \
  X(Invalid)                                                                   \
  /* specialized forms; Jcc is jo .. jnle */                                   \
  X(MovRR) X(MovRI) X(MovRM) X(MovMR) X(MovMI)                                 \
  X(AddRR) X(AddRI) X(SubRR) X(SubRI) X(AndRR) X(AndRI) X(OrRR) X(OrRI)        \
  X(XorRR) X(XorRI) X(CmpRR) X(CmpRI) X(TestRR) X(TestRI) X(ShlRI) X(ShrRI)    \
  X(IncR) X(DecR) X(ImulRRI) X(Jcc) X(Jmp) X(Jecxz) X(MovzxBRM) X(Lea)         \
  X(PushR) X(PushI) X(PopR) X(MovsdXX) X(MovsdXM) X(MovsdMX) X(AddsdXX)        \
  X(AddsdXM) X(MulsdXX) X(MulsdXM)                                             \
  /* generic cases */                                                          \
  X(MovB) X(MovzxB) X(MovsxB) X(MovxW) X(Xchg) X(Push) X(Pop) X(AddAdc)        \
  X(SubSbb) X(Cmp) X(Logic) X(Test) X(IncDec) X(Neg) X(Not) X(Imul) X(Mul)     \
  X(Idiv) X(Cdq) X(Shift) X(JmpInd) X(Call) X(CallInd) X(Ret) X(Int) X(Hlt)    \
  X(Nop) X(ArithSd) X(Ucomisd) X(Cvtsi2sd) X(Cvttsd2si) X(ClientCall)          \
  X(Savef) X(Restf)

enum Form : uint8_t {
#define RIO_FORM_ID(Name) F_##Name,
  RIO_FORMS(RIO_FORM_ID)
#undef RIO_FORM_ID
  NumForms
};

/// The generic case serving \p Op; Invalid for label and for the opcodes
/// that have none (mov, lea, movsd and the direct jumps: every operand
/// combination the decoder produces for them fits a specialized form).
Form genericForm(Opcode Op) {
  switch (Op) {
  case OP_mov_b:
    return F_MovB;
  case OP_movzx_b:
    return F_MovzxB;
  case OP_movsx_b:
    return F_MovsxB;
  case OP_movzx_w:
  case OP_movsx_w:
    return F_MovxW;
  case OP_xchg:
    return F_Xchg;
  case OP_push:
    return F_Push;
  case OP_pop:
    return F_Pop;
  case OP_add:
  case OP_adc:
    return F_AddAdc;
  case OP_sub:
  case OP_sbb:
    return F_SubSbb;
  case OP_cmp:
    return F_Cmp;
  case OP_and:
  case OP_or:
  case OP_xor:
    return F_Logic;
  case OP_test:
    return F_Test;
  case OP_inc:
  case OP_dec:
    return F_IncDec;
  case OP_neg:
    return F_Neg;
  case OP_not:
    return F_Not;
  case OP_imul:
    return F_Imul;
  case OP_mul:
    return F_Mul;
  case OP_idiv:
    return F_Idiv;
  case OP_cdq:
    return F_Cdq;
  case OP_shl:
  case OP_shr:
  case OP_sar:
    return F_Shift;
  case OP_jmp_ind:
    return F_JmpInd;
  case OP_call:
    return F_Call;
  case OP_call_ind:
    return F_CallInd;
  case OP_ret:
  case OP_ret_imm:
    return F_Ret;
  case OP_int:
    return F_Int;
  case OP_hlt:
    return F_Hlt;
  case OP_nop:
    return F_Nop;
  case OP_addsd:
  case OP_subsd:
  case OP_mulsd:
  case OP_divsd:
    return F_ArithSd;
  case OP_ucomisd:
    return F_Ucomisd;
  case OP_cvtsi2sd:
    return F_Cvtsi2sd;
  case OP_cvttsd2si:
    return F_Cvttsd2si;
  case OP_clientcall:
    return F_ClientCall;
  case OP_savef:
    return F_Savef;
  case OP_restf:
    return F_Restf;
  default:
    return F_Invalid;
  }
}

/// The form of \p R: a specialized one when its operand kinds fit one,
/// else its opcode's generic case.
Form formOf(const PredecodedInstr &R) {
  using P = PredecodedOp;
  const P::Kind S0 = R.Src[0].K, S1 = R.Src[1].K, D0 = R.Dst[0].K;
  // Two-operand ALU layouts: S = {src, reg}, D = {reg} (compares: D = {}).
  const bool RegReg = S0 == P::Gpr && S1 == P::Gpr;
  const bool RegImm = S0 == P::Imm && S1 == P::Gpr;
  const bool ToReg = D0 == P::Gpr;
  const bool ToXmm = D0 == P::Xmm;
  auto Pick = [&](bool Fits, Form F) { return Fits ? F : genericForm(R.Op); };
  switch (R.Op) {
  case OP_mov:
    if (ToReg && S0 == P::Gpr)
      return F_MovRR;
    if (ToReg && S0 == P::Imm)
      return F_MovRI;
    if (ToReg && S0 == P::Mem)
      return F_MovRM;
    if (D0 == P::Mem && S0 == P::Gpr)
      return F_MovMR;
    if (D0 == P::Mem && S0 == P::Imm)
      return F_MovMI;
    break;
  case OP_add:
    return ToReg && RegReg ? F_AddRR : Pick(ToReg && RegImm, F_AddRI);
  case OP_sub:
    return ToReg && RegReg ? F_SubRR : Pick(ToReg && RegImm, F_SubRI);
  case OP_and:
    return ToReg && RegReg ? F_AndRR : Pick(ToReg && RegImm, F_AndRI);
  case OP_or:
    return ToReg && RegReg ? F_OrRR : Pick(ToReg && RegImm, F_OrRI);
  case OP_xor:
    return ToReg && RegReg ? F_XorRR : Pick(ToReg && RegImm, F_XorRI);
  case OP_cmp:
    return RegReg ? F_CmpRR : Pick(RegImm, F_CmpRI);
  case OP_test:
    return RegReg ? F_TestRR : Pick(RegImm, F_TestRI);
  case OP_shl:
    return Pick(ToReg && RegImm, F_ShlRI);
  case OP_shr:
    return Pick(ToReg && RegImm, F_ShrRI);
  case OP_inc:
    return Pick(ToReg && S0 == P::Gpr, F_IncR);
  case OP_dec:
    return Pick(ToReg && S0 == P::Gpr, F_DecR);
  case OP_imul:
    return Pick(ToReg && RegImm, F_ImulRRI);
  case OP_movzx_b:
    return Pick(ToReg && S0 == P::Mem, F_MovzxBRM);
  case OP_push:
    return S0 == P::Gpr ? F_PushR : Pick(S0 == P::Imm, F_PushI);
  case OP_pop:
    return Pick(ToReg, F_PopR);
  case OP_addsd:
    return ToXmm && S1 == P::Xmm && S0 == P::Xmm
               ? F_AddsdXX
               : Pick(ToXmm && S1 == P::Xmm && S0 == P::Mem, F_AddsdXM);
  case OP_mulsd:
    return ToXmm && S1 == P::Xmm && S0 == P::Xmm
               ? F_MulsdXX
               : Pick(ToXmm && S1 == P::Xmm && S0 == P::Mem, F_MulsdXM);
  case OP_lea:
    if (ToReg && S0 == P::Mem)
      return F_Lea;
    break;
  case OP_jmp:
    if (S0 == P::Imm)
      return F_Jmp;
    break;
  case OP_jecxz:
    if (S0 == P::Imm)
      return F_Jecxz;
    break;
  case OP_movsd:
    if (ToXmm && S0 == P::Xmm)
      return F_MovsdXX;
    if (ToXmm && S0 == P::Mem)
      return F_MovsdXM;
    if (D0 == P::Mem && S0 == P::Xmm)
      return F_MovsdMX;
    break;
  default:
    if (R.Op < OP_jo || R.Op > OP_jnle)
      return genericForm(R.Op);
    if (S0 == P::Imm)
      return F_Jcc;
    break;
  }
  assert(false && "operands fit no form of an opcode without a generic case");
  return F_Invalid;
}

/// Builds the record the interpreter runs from \p DI, asserting once the
/// operand invariants every execution of it relies on.
void predecode(const DecodedInstr &DI, unsigned Cost, PredecodedInstr &R) {
#ifndef NDEBUG
  const Use *U = operandRow(DI.Op).Uses;
  assert(usable(DI.Srcs[0], U[0]) && usable(DI.Srcs[1], U[1]) &&
         usable(DI.Dsts[0], U[2]) && usable(DI.Dsts[1], U[3]) &&
         "operand does not fit its opcode's use");
#endif
  R.Op = DI.Op;
  R.Length = DI.Length;
  R.Stop = false;
  R.Cost = Cost;
  R.Src[0] = predecodeOp(DI.Srcs[0]);
  R.Src[1] = predecodeOp(DI.Srcs[1]);
  R.Dst[0] = predecodeOp(DI.Dsts[0]);
  R.Dst[1] = predecodeOp(DI.Dsts[1]);
  R.Form = formOf(R);
}

} // namespace

const PredecodedInstr *Machine::fillDecode(AppPc Pc) {
  assert(Pc < Mem.size() && "fill out of range");
  // All instructions are at most MaxInstrLength bytes, so a bounded window
  // is as good as the old whole-image pointer; readWindow stitches a
  // page-straddling fetch through the scratch buffer.
  uint8_t Scratch[MaxInstrLength];
  uint32_t Win = std::min<uint32_t>(Mem.size() - Pc, MaxInstrLength);
  const uint8_t *Bytes = Mem.readWindow(Pc, Win, Scratch);
  DecodedInstr DI;
  if (!Bytes || !decodeInstr(Bytes, Win, Pc, DI))
    return nullptr;
  // Sticky: stores into any line the instruction's bytes touch invalidate.
  for (uint32_t L = Pc / WriteWatchLine;
       L <= (Pc + DI.Length - 1) / WriteWatchLine; ++L)
    LineState.mut(L) |= 1;
  DecodeLine &L = DecodeCache.mut(Pc & (DecodeCacheLines - 1));
  L.Tag = Pc + 1;
  predecode(DI, Config.Cost.cyclesFor(DI), L.R);
  L.R.Stop = !StopPcs.empty() && StopPcs.count(Pc) != 0;
  return &L.R;
}

void Machine::setStopPc(AppPc Pc, bool Stop) {
  if (Stop ? !StopPcs.insert(Pc).second : StopPcs.erase(Pc) == 0)
    return;
  // Drop the pc's line if it holds the pc: the refill reads the new mark.
  // (A line holding an aliasing pc reads StopPcs when Pc refills it.)
  dropDecode(Pc);
}

void Machine::invalidateDecodeRange(uint32_t Lo, uint32_t Hi) {
  Hi = std::min<uint64_t>(Hi, Mem.size());
  if (Lo >= Hi)
    return;
  if (Hi - Lo < DecodeCacheLines) {
    for (uint32_t Pc = Lo; Pc != Hi; ++Pc)
      dropDecode(Pc);
    return;
  }
  // A range wider than the cache: visit each line once instead.
  for (uint32_t Idx = 0; Idx != DecodeCacheLines; ++Idx) {
    uint32_t Tag = DecodeCache[Idx].Tag;
    if (Tag != 0 && Tag - 1 >= Lo && Tag - 1 < Hi)
      DecodeCache.mut(Idx).Tag = 0;
  }
}

//===----------------------------------------------------------------------===//
// Code-write monitoring
//===----------------------------------------------------------------------===//

void Machine::addWriteWatch(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi)
    return;
  Hi = std::min<uint64_t>(Hi, Mem.size());
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    LineState.mut(L) += 2; // watch count lives above the sticky decoded bit
}

void Machine::removeWriteWatch(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi)
    return;
  Hi = std::min<uint64_t>(Hi, Mem.size());
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    if (LineState[L] >> 1)
      LineState.mut(L) -= 2;
}

void Machine::noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State) {
  // The inline fast path already OR-ed the (at most two) line states; only
  // monitored stores land here.
  if (State & 1) {
    // Any instruction starting up to MaxInstrLength-1 bytes before the
    // store may span the written bytes. Dropping a line only clears its
    // tag, so the storing instruction's own record stays intact while it
    // finishes executing.
    uint32_t Lo = Addr >= MaxInstrLength - 1 ? Addr - (MaxInstrLength - 1) : 0;
    invalidateDecodeRange(Lo, Addr + Len);
  }
  if (State >> 1) {
    CodeWrites.push_back({Addr, Addr + Len});
    CodeWritten = true;
  }
}

//===----------------------------------------------------------------------===//
// Operand access
//===----------------------------------------------------------------------===//

namespace {

/// The address of memory operand \p Op over register file \p Gpr.
RIO_ALWAYS_INLINE uint32_t addrOf(const PredecodedOp &Op, const uint32_t *Gpr) {
  // predecode() asserted the operand is a memory reference.
  uint32_t A = Op.Value;
  if (Op.Reg != PredecodedOp::NoSlot)
    A += Gpr[Op.Reg];
  if (Op.Index != PredecodedOp::NoSlot)
    A += Gpr[Op.Index] * Op.Aux;
  return A;
}

} // namespace

bool Machine::read32(const PredecodedOp &Op, uint32_t &Value) {
  switch (Op.K) {
  case PredecodedOp::Gpr:
    Value = CurCpu->Gpr[Op.Reg];
    return true;
  case PredecodedOp::Gpr8:
    // Byte registers zero-extend when read in a 32-bit context (the only
    // such case is a shift's CL count operand).
    Value = uint8_t(CurCpu->Gpr[Op.Reg] >> Op.Aux);
    return true;
  case PredecodedOp::Imm:
    Value = Op.Value;
    return true;
  case PredecodedOp::Mem:
    return Mem.read32(addrOf(Op, CurCpu->Gpr), Value);
  default:
    return false;
  }
}

bool Machine::write32(const PredecodedOp &Op, uint32_t Value) {
  if (Op.K == PredecodedOp::Gpr) {
    CurCpu->Gpr[Op.Reg] = Value;
    return true;
  }
  if (Op.K == PredecodedOp::Mem) {
    uint32_t Addr = addrOf(Op, CurCpu->Gpr);
    if (!Mem.write32(Addr, Value))
      return false;
    noteWrite(Addr, 4);
    return true;
  }
  return false;
}

bool Machine::read8(const PredecodedOp &Op, uint8_t &Value) {
  switch (Op.K) {
  case PredecodedOp::Gpr8:
    Value = uint8_t(CurCpu->Gpr[Op.Reg] >> Op.Aux);
    return true;
  case PredecodedOp::Imm:
    Value = uint8_t(Op.Value);
    return true;
  case PredecodedOp::Mem:
    return Mem.read8(addrOf(Op, CurCpu->Gpr), Value);
  default:
    return false;
  }
}

bool Machine::write8(const PredecodedOp &Op, uint8_t Value) {
  if (Op.K == PredecodedOp::Gpr8) {
    uint32_t &Full = CurCpu->Gpr[Op.Reg];
    Full = (Full & ~(0xFFu << Op.Aux)) | (uint32_t(Value) << Op.Aux);
    return true;
  }
  if (Op.K == PredecodedOp::Mem) {
    uint32_t Addr = addrOf(Op, CurCpu->Gpr);
    if (!Mem.write8(Addr, Value))
      return false;
    noteWrite(Addr, 1);
    return true;
  }
  return false;
}

bool Machine::readF64(const PredecodedOp &Op, double &Value) {
  if (Op.K == PredecodedOp::Xmm) {
    Value = CurCpu->Xmm[Op.Reg];
    return true;
  }
  if (Op.K == PredecodedOp::Mem)
    return Mem.readF64(addrOf(Op, CurCpu->Gpr), Value);
  return false;
}

bool Machine::writeF64(const PredecodedOp &Op, double Value) {
  if (Op.K == PredecodedOp::Xmm) {
    CurCpu->Xmm[Op.Reg] = Value;
    return true;
  }
  if (Op.K == PredecodedOp::Mem) {
    uint32_t Addr = addrOf(Op, CurCpu->Gpr);
    if (!Mem.writeF64(Addr, Value))
      return false;
    noteWrite(Addr, 8);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Flag computation
//===----------------------------------------------------------------------===//

namespace {

/// Parity of the low result byte, precomputed: ParityLut.T[b] is EFLAGS_PF
/// if b has even parity, else 0.
struct ParityLut {
  uint32_t T[256];
  constexpr ParityLut() : T() {
    for (unsigned I = 0; I != 256; ++I) {
      unsigned B = I ^ (I >> 4);
      B ^= B >> 2;
      B ^= B >> 1;
      T[I] = (B & 1) == 0 ? uint32_t(EFLAGS_PF) : 0u;
    }
  }
};
constexpr ParityLut Parity;

constexpr uint32_t ArithFlags = EFLAGS_CF | EFLAGS_PF | EFLAGS_AF |
                                EFLAGS_ZF | EFLAGS_SF | EFLAGS_OF;

/// PF/ZF/SF bits for \p Result. SF is bit 7, so the sign bit shifts into
/// place directly.
inline uint32_t pzsBits(uint32_t Result) {
  uint32_t Bits = Parity.T[Result & 0xFF];
  if (Result == 0)
    Bits |= EFLAGS_ZF;
  Bits |= (Result >> 24) & EFLAGS_SF;
  return Bits;
}

void setPZS(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~(EFLAGS_PF | EFLAGS_ZF | EFLAGS_SF)) |
              pzsBits(Result);
}

/// add/adc result flags; \p CarryIn is 0 or 1. All six arithmetic flags
/// are merged into Eflags with one read-modify-write.
inline uint32_t doAdd(CpuState &St, uint32_t A, uint32_t B, uint32_t CarryIn,
                      bool WriteCarry = true) {
  uint64_t Wide = uint64_t(A) + B + CarryIn;
  uint32_t Result = uint32_t(Wide);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF); // AF is bit 4 of the carry vector
  if (((A ^ Result) & (B ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (Wide >> 32)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

/// sub/sbb/cmp result flags.
inline uint32_t doSub(CpuState &St, uint32_t A, uint32_t B, uint32_t BorrowIn,
                      bool WriteCarry = true) {
  uint64_t Rhs = uint64_t(B) + BorrowIn;
  uint32_t Result = uint32_t(A - B - BorrowIn);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF);
  if (((A ^ B) & (A ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (uint64_t(A) < Rhs)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

/// and/or/xor/test result flags; returns \p Result.
inline uint32_t doLogicFlags(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~ArithFlags) | pzsBits(Result);
  return Result;
}

/// Whether condition code \p Cc (0 for o .. 15 for nle) holds for the
/// flags CF, PF, ZF, SF and OF.
constexpr bool condOf(unsigned Cc, bool CF, bool PF, bool ZF, bool SF,
                      bool OF) {
  bool Result = false;
  switch (Cc >> 1) {
  case 0:
    Result = OF;
    break; // o / no
  case 1:
    Result = CF;
    break; // b / nb
  case 2:
    Result = ZF;
    break; // z / nz
  case 3:
    Result = CF || ZF;
    break; // be / nbe
  case 4:
    Result = SF;
    break; // s / ns
  case 5:
    Result = PF;
    break; // p / np
  case 6:
    Result = SF != OF;
    break; // l / nl
  case 7:
    Result = ZF || (SF != OF);
    break; // le / nle
  }
  return (Cc & 1) ? !Result : Result;
}

/// condOf tabulated, so a branch tests a bit instead of switching on its
/// condition: bit I of CondLut.T[Cc] is condOf(Cc) for the flags in I
/// (bit 0 CF, 1 PF, 2 ZF, 3 SF, 4 OF).
struct CondLut {
  uint32_t T[16];
  constexpr CondLut() : T() {
    for (unsigned Cc = 0; Cc != 16; ++Cc)
      for (unsigned I = 0; I != 32; ++I)
        if (condOf(Cc, I & 1, I & 2, I & 4, I & 8, I & 16))
          T[Cc] |= 1u << I;
  }
};
constexpr CondLut Conds;

bool condHolds(const CpuState &St, unsigned Cc) {
  static_assert(EFLAGS_CF == 1 << 0 && EFLAGS_PF == 1 << 2 &&
                    EFLAGS_ZF == 1 << 6 && EFLAGS_SF == 1 << 7 &&
                    EFLAGS_OF == 1 << 11,
                "the flag index gathers these bits");
  const uint32_t E = St.Eflags;
  const uint32_t I = (E & 1) | ((E >> 1) & 2) | ((E >> 4) & 4) |
                     ((E >> 4) & 8) | ((E >> 7) & 16);
  return (Conds.T[Cc] >> I) & 1;
}

/// imul result flags: CF and OF say the signed product overflowed.
inline uint32_t doImul(CpuState &St, uint32_t A, uint32_t B) {
  int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
  uint32_t V = uint32_t(Full);
  bool Overflow = Full != int64_t(int32_t(V));
  St.setFlag(EFLAGS_CF, Overflow);
  St.setFlag(EFLAGS_OF, Overflow);
  St.setFlag(EFLAGS_AF, false);
  setPZS(St, V);
  return V;
}

/// shl/shr/sar of \p A by \p Count, 1 to 31, and its flags. (A masked
/// count of 0 changes neither the operand nor the flags.)
inline uint32_t doShift(CpuState &St, Opcode Op, uint32_t A, uint32_t Count) {
  uint32_t V;
  bool LastOut;
  if (Op == OP_shl) {
    LastOut = ((A >> (32 - Count)) & 1) != 0;
    V = A << Count;
    St.setFlag(EFLAGS_OF, Count == 1 && ((V >> 31) != 0) != LastOut);
  } else if (Op == OP_shr) {
    LastOut = ((A >> (Count - 1)) & 1) != 0;
    V = A >> Count;
    St.setFlag(EFLAGS_OF, Count == 1 && (A >> 31) != 0);
  } else {
    LastOut = ((uint32_t(int32_t(A) >> (Count - 1))) & 1) != 0;
    V = uint32_t(int32_t(A) >> Count);
    St.setFlag(EFLAGS_OF, false);
  }
  St.setFlag(EFLAGS_CF, LastOut);
  St.setFlag(EFLAGS_AF, false);
  setPZS(St, V);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Syscalls
//===----------------------------------------------------------------------===//

unsigned Machine::createThread(AppPc Entry, uint32_t StackTop) {
  Thread T;
  T.Cpu.Pc = Entry;
  T.Cpu.writeGpr32(REG_ESP, StackTop & ~15u);
  Threads.push_back(T);
  CurCpu = &Threads[CurThread].Cpu; // push_back may have reallocated
  return unsigned(Threads.size() - 1);
}

Machine::SyscallResult Machine::doSyscall() {
  uint32_t Nr = cpu().readGpr32(REG_EAX);
  uint32_t Arg1 = cpu().readGpr32(REG_EBX);
  uint32_t Arg2 = cpu().readGpr32(REG_ECX);
  uint32_t Arg3 = cpu().readGpr32(REG_EDX);
  switch (Nr) {
  case RSYS_exit:
    Status = RunStatus::Exited;
    ExitCode = int(Arg1);
    return SyscallResult::Ok;
  case RSYS_print_int: {
    char Buf[16];
    int Len = std::snprintf(Buf, sizeof(Buf), "%d\n", int(Arg1));
    Output.append(Buf, size_t(Len));
    return SyscallResult::Ok;
  }
  case RSYS_print_char:
    Output.push_back(char(Arg1));
    return SyscallResult::Ok;
  case RSYS_write: {
    if (Arg1 != 1 && Arg1 != 2) {
      fault("write to bad fd");
      return SyscallResult::Fault;
    }
    if (!Mem.inBounds(Arg2, Arg3)) {
      fault("write from unmapped buffer");
      return SyscallResult::Fault;
    }
    Mem.forEachSpan(Arg2, Arg3, [&](const uint8_t *Run, uint32_t Len) {
      Output.append(reinterpret_cast<const char *>(Run), Len);
    });
    cpu().writeGpr32(REG_EAX, Arg3);
    return SyscallResult::Ok;
  }
  case RSYS_thread_create: {
    if (!Mem.inBounds(Arg2 - 16, 16)) {
      fault("thread_create with bad stack");
      return SyscallResult::Fault;
    }
    unsigned Tid = createThread(Arg1, Arg2);
    cpu().writeGpr32(REG_EAX, Tid);
    return SyscallResult::Spawned;
  }
  case RSYS_thread_exit:
    Threads[CurThread].Alive = false;
    // The whole program ends when the last thread leaves.
    {
      bool AnyAlive = false;
      for (const Thread &T : Threads)
        AnyAlive = AnyAlive || T.Alive;
      if (!AnyAlive) {
        Status = RunStatus::Exited;
        ExitCode = 0;
      }
    }
    return SyscallResult::ThreadExited;
  case RSYS_gettid:
    cpu().writeGpr32(REG_EAX, CurThread);
    return SyscallResult::Ok;
  default:
    fault("unknown syscall " + std::to_string(Nr));
    return SyscallResult::Fault;
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

StepResult Machine::step() {
  StopSet One;
  One.InstrLimit = InstrsExecuted + 1;
  return run(One);
}

StepResult Machine::run(const StopSet &StopsIn) {
  const StopSet Stops = StopsIn; // locals: guest stores cannot alias them
  StepResult Result;
  if (RIO_UNLIKELY(Status != RunStatus::Running)) {
    Result.Kind =
        Status == RunStatus::Exited ? StepKind::Exited : StepKind::Faulted;
    return Result;
  }
  // The caller's deadline and the runaway guard share one compare per
  // instruction. Reaching either returns; the budget faults only when a
  // run starts past it and the deadline is not also reached, so a deadline
  // at the budget suspends, and the fault hits the same instruction as a
  // step() loop's.
  const uint64_t InstrStop = std::min(Stops.InstrLimit, Config.MaxInstructions);
  if (RIO_UNLIKELY(Cycles >= Stops.CycleLimit))
    return Result;
  if (RIO_UNLIKELY(InstrsExecuted >= InstrStop)) {
    if (InstrsExecuted >= Stops.InstrLimit)
      return Result;
    LastPc = CurCpu->Pc;
    fault("instruction budget exceeded");
    Result.Kind = StepKind::Faulted;
    return Result;
  }
  // The log may already be ahead of a cursor that lagged (another runtime
  // on this machine wrote watched code): stop after one instruction then.
  bool LogAhead = CodeWrites.size() > Stops.CodeWriteCursor;

  // The loop state lives in locals: the pc, the cycle and instruction
  // counts and the last pc. Guest stores are byte writes into the memory
  // image, which may alias any member, so members would be reloaded after
  // every store; locals whose address never escapes cannot be aliased.
  // Every return goes through Done, which writes them back; no call made
  // while the loop runs reads them. The thread table only moves under
  // thread_create, which ends the run, so the register file stays put.
  CpuState &C = *CurCpu;
  uint32_t *const Gpr = C.Gpr;
  double *const Xmm = C.Xmm;
  uint32_t &Esp = Gpr[REG_ESP - REG_EAX];
  const uint32_t TakenCost = Config.Cost.TakenBranchCost;
  const uint32_t MispredictCost = Config.Cost.MispredictPenalty;
  const AppPc RuntimeBase = runtimeBase();
  AppPc Pc = C.Pc;
  AppPc Last = LastPc;
  uint64_t Cyc = Cycles;
  uint64_t Count = InstrsExecuted;

  // Threaded dispatch: a record's form indexes a table of handler labels,
  // and every handler ends by jumping to Advance (the following
  // instruction) or to Next (a branch target) instead of returning to a
  // loop. The table is constant-initialized, so no guard runs on entry.
  static const void *const Handlers[] = {
#define RIO_FORM_LABEL(Name) &&H_##Name,
      RIO_FORMS(RIO_FORM_LABEL)
#undef RIO_FORM_LABEL
  };
  static_assert(std::size(Handlers) == NumForms, "one handler per form");
  // The operands of the running record.
#define S0 (R->Src[0])
#define S1 (R->Src[1])
#define D0 (R->Dst[0])

  // One line probe serves the record, its memoized cycle cost and its stop
  // mark. The caller has just serviced the first pc's mark.
  const PredecodedInstr *R = fetchDecode(Pc);
  goto Execute;

Advance:
  Pc += R->Length;
Next:
  // After each instruction: stop if it grew the code-write log past the
  // caller's cursor or reached the instruction deadline, or if the pc or
  // the cycle count meets a stop condition. All of these come before the
  // probe, so a run that stops never fills the next pc's line.
  if (RIO_UNLIKELY(CodeWritten)) {
    CodeWritten = false;
    LogAhead = CodeWrites.size() > Stops.CodeWriteCursor;
  }
  if (RIO_UNLIKELY(LogAhead) || RIO_UNLIKELY(Count >= InstrStop))
    goto Done;
  if (RIO_UNLIKELY(Pc == Stops.StopPc || Pc < Stops.LowPc ||
                   Cyc >= Stops.CycleLimit))
    goto Done;
  R = fetchDecode(Pc);
  if (RIO_UNLIKELY(R && R->Stop))
    goto Done;
Execute:
  Last = Pc;
  if (RIO_UNLIKELY(!R)) {
    fault("undecodable instruction at pc");
    Result.Kind = StepKind::Faulted;
    goto Done;
  }
  Cyc += R->Cost;
  ++Count;
  goto *Handlers[R->Form];

  //===--- specialized forms -----------------------------------------------===
H_MovRR:
  Gpr[D0.Reg] = Gpr[S0.Reg];
  goto Advance;
H_MovRI:
  Gpr[D0.Reg] = S0.Value;
  goto Advance;
H_MovRM: {
  uint32_t V;
  if (!Mem.read32(addrOf(S0, Gpr), V))
    goto MemFault;
  Gpr[D0.Reg] = V;
  goto Advance;
}
H_MovMR:
H_MovMI: {
  const uint32_t V = R->Form == F_MovMR ? Gpr[S0.Reg] : S0.Value;
  const uint32_t Addr = addrOf(D0, Gpr);
  if (!Mem.write32(Addr, V))
    goto MemFault;
  noteWrite(Addr, 4);
  goto Advance;
}
H_AddRR:
  Gpr[D0.Reg] = doAdd(C, Gpr[S1.Reg], Gpr[S0.Reg], 0);
  goto Advance;
H_AddRI:
  Gpr[D0.Reg] = doAdd(C, Gpr[S1.Reg], S0.Value, 0);
  goto Advance;
H_SubRR:
  Gpr[D0.Reg] = doSub(C, Gpr[S1.Reg], Gpr[S0.Reg], 0);
  goto Advance;
H_SubRI:
  Gpr[D0.Reg] = doSub(C, Gpr[S1.Reg], S0.Value, 0);
  goto Advance;
H_AndRR:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] & Gpr[S0.Reg]);
  goto Advance;
H_AndRI:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] & S0.Value);
  goto Advance;
H_OrRR:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] | Gpr[S0.Reg]);
  goto Advance;
H_OrRI:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] | S0.Value);
  goto Advance;
H_XorRR:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] ^ Gpr[S0.Reg]);
  goto Advance;
H_XorRI:
  Gpr[D0.Reg] = doLogicFlags(C, Gpr[S1.Reg] ^ S0.Value);
  goto Advance;
H_CmpRR:
  doSub(C, Gpr[S1.Reg], Gpr[S0.Reg], 0);
  goto Advance;
H_CmpRI:
  doSub(C, Gpr[S1.Reg], S0.Value, 0);
  goto Advance;
H_TestRR:
  doLogicFlags(C, Gpr[S1.Reg] & Gpr[S0.Reg]);
  goto Advance;
H_TestRI:
  doLogicFlags(C, Gpr[S1.Reg] & S0.Value);
  goto Advance;
H_ShlRI:
  if (const uint32_t N = S0.Value & 31)
    Gpr[D0.Reg] = doShift(C, OP_shl, Gpr[S1.Reg], N);
  goto Advance;
H_ShrRI:
  if (const uint32_t N = S0.Value & 31)
    Gpr[D0.Reg] = doShift(C, OP_shr, Gpr[S1.Reg], N);
  goto Advance;
H_IncR:
  // inc/dec leave CF untouched — the hinge of the paper's Section 4.2.
  Gpr[D0.Reg] = doAdd(C, Gpr[S0.Reg], 1, 0, /*WriteCarry=*/false);
  goto Advance;
H_DecR:
  Gpr[D0.Reg] = doSub(C, Gpr[S0.Reg], 1, 0, /*WriteCarry=*/false);
  goto Advance;
H_ImulRRI:
  Gpr[D0.Reg] = doImul(C, S0.Value, Gpr[S1.Reg]);
  goto Advance;
H_Jcc:
H_Jecxz: {
  const bool Taken = R->Form == F_Jecxz ? Gpr[REG_ECX - REG_EAX] == 0
                                        : condHolds(C, condCodeOf(R->Op));
  if (!Pred.predictCond(Pc, Taken))
    Cyc += MispredictCost;
  if (!Taken)
    goto Advance;
  Cyc += TakenCost;
  Pc = S0.Value;
  goto Next;
}
H_Jmp:
  Cyc += TakenCost;
  Pc = S0.Value;
  goto Next;
H_MovzxBRM: {
  uint8_t V;
  if (!Mem.read8(addrOf(S0, Gpr), V))
    goto MemFault;
  Gpr[D0.Reg] = V;
  goto Advance;
}
H_Lea:
  Gpr[D0.Reg] = addrOf(S0, Gpr);
  goto Advance;
H_PushR:
H_PushI: {
  const uint32_t V = R->Form == F_PushR ? Gpr[S0.Reg] : S0.Value;
  const uint32_t NewEsp = Esp - 4;
  if (!Mem.write32(NewEsp, V))
    goto MemFault;
  noteWrite(NewEsp, 4);
  Esp = NewEsp;
  goto Advance;
}
H_PopR: {
  const uint32_t OldEsp = Esp;
  uint32_t V;
  if (!Mem.read32(OldEsp, V))
    goto MemFault;
  // Order matters for `pop esp`: write the value last.
  Esp = OldEsp + 4;
  Gpr[D0.Reg] = V;
  goto Advance;
}
H_MovsdXX:
  Xmm[D0.Reg] = Xmm[S0.Reg];
  goto Advance;
H_MovsdXM: {
  double V;
  if (!Mem.readF64(addrOf(S0, Gpr), V))
    goto MemFault;
  Xmm[D0.Reg] = V;
  goto Advance;
}
H_MovsdMX: {
  const uint32_t Addr = addrOf(D0, Gpr);
  if (!Mem.writeF64(Addr, Xmm[S0.Reg]))
    goto MemFault;
  noteWrite(Addr, 8);
  goto Advance;
}
H_AddsdXX:
  Xmm[D0.Reg] = Xmm[S1.Reg] + Xmm[S0.Reg];
  goto Advance;
H_MulsdXX:
  Xmm[D0.Reg] = Xmm[S1.Reg] * Xmm[S0.Reg];
  goto Advance;
H_AddsdXM:
H_MulsdXM: {
  double B;
  if (!Mem.readF64(addrOf(S0, Gpr), B))
    goto MemFault;
  const double A = Xmm[S1.Reg];
  Xmm[D0.Reg] = R->Form == F_AddsdXM ? A + B : A * B;
  goto Advance;
}

  //===--- generic cases: data movement ------------------------------------===
H_MovB: {
  uint8_t V;
  if (!read8(S0, V) || !write8(D0, V))
    goto MemFault;
  goto Advance;
}
H_MovzxB: {
  uint8_t V;
  if (!read8(S0, V) || !write32(D0, V))
    goto MemFault;
  goto Advance;
}
H_MovsxB: {
  uint8_t V;
  if (!read8(S0, V) || !write32(D0, uint32_t(int32_t(int8_t(V)))))
    goto MemFault;
  goto Advance;
}
H_MovxW: {
  uint16_t V;
  if (!Mem.read16(addrOf(S0, Gpr), V) ||
      !write32(D0, R->Op == OP_movzx_w ? uint32_t(V)
                                       : uint32_t(int32_t(int16_t(V)))))
    goto MemFault;
  goto Advance;
}
H_Xchg: {
  uint32_t A, B;
  if (!read32(S0, A) || !read32(S1, B) || !write32(D0, B) ||
      !write32(R->Dst[1], A))
    goto MemFault;
  goto Advance;
}
H_Push: {
  uint32_t V;
  if (!read32(S0, V))
    goto MemFault;
  const uint32_t NewEsp = Esp - 4;
  if (!Mem.write32(NewEsp, V))
    goto MemFault;
  noteWrite(NewEsp, 4);
  Esp = NewEsp;
  goto Advance;
}
H_Pop: {
  const uint32_t OldEsp = Esp;
  uint32_t V;
  if (!Mem.read32(OldEsp, V))
    goto MemFault;
  // Order matters for `pop esp`-style cases: write the value last.
  Esp = OldEsp + 4;
  if (!write32(D0, V))
    goto MemFault;
  goto Advance;
}

  //===--- generic cases: integer ALU --------------------------------------===
H_AddAdc: {
  uint32_t A, B;
  if (!read32(S1, A) || !read32(S0, B))
    goto MemFault;
  const uint32_t Cin = R->Op == OP_adc && C.flag(EFLAGS_CF) ? 1 : 0;
  if (!write32(D0, doAdd(C, A, B, Cin)))
    goto MemFault;
  goto Advance;
}
H_SubSbb: {
  uint32_t A, B;
  if (!read32(S1, A) || !read32(S0, B))
    goto MemFault;
  const uint32_t Bin = R->Op == OP_sbb && C.flag(EFLAGS_CF) ? 1 : 0;
  if (!write32(D0, doSub(C, A, B, Bin)))
    goto MemFault;
  goto Advance;
}
H_Cmp: {
  uint32_t A, B;
  if (!read32(S1, A) || !read32(S0, B))
    goto MemFault;
  doSub(C, A, B, 0);
  goto Advance;
}
H_Logic: {
  uint32_t A, B;
  if (!read32(S1, A) || !read32(S0, B))
    goto MemFault;
  const uint32_t V = R->Op == OP_and  ? (A & B)
                     : R->Op == OP_or ? (A | B)
                                      : (A ^ B);
  if (!write32(D0, doLogicFlags(C, V)))
    goto MemFault;
  goto Advance;
}
H_Test: {
  uint32_t A, B;
  if (!read32(S1, A) || !read32(S0, B))
    goto MemFault;
  doLogicFlags(C, A & B);
  goto Advance;
}
H_IncDec: {
  uint32_t A;
  if (!read32(S0, A))
    goto MemFault;
  const uint32_t V = R->Op == OP_inc
                         ? doAdd(C, A, 1, 0, /*WriteCarry=*/false)
                         : doSub(C, A, 1, 0, /*WriteCarry=*/false);
  if (!write32(D0, V))
    goto MemFault;
  goto Advance;
}
H_Neg: {
  uint32_t A;
  if (!read32(S0, A) || !write32(D0, doSub(C, 0, A, 0)))
    goto MemFault;
  goto Advance;
}
H_Not: {
  uint32_t A;
  if (!read32(S0, A) || !write32(D0, ~A))
    goto MemFault;
  goto Advance;
}
H_Imul: {
  // Two forms share canonical shape S={x, y}, D={r}.
  uint32_t A, B;
  if (!read32(S0, A) || !read32(S1, B) || !write32(D0, doImul(C, A, B)))
    goto MemFault;
  goto Advance;
}
H_Mul: {
  uint32_t Src;
  if (!read32(S0, Src))
    goto MemFault;
  const uint64_t Full = uint64_t(Gpr[REG_EAX - REG_EAX]) * Src;
  const uint32_t Lo = uint32_t(Full), Hi = uint32_t(Full >> 32);
  Gpr[REG_EAX - REG_EAX] = Lo;
  Gpr[REG_EDX - REG_EAX] = Hi;
  C.setFlag(EFLAGS_CF, Hi != 0);
  C.setFlag(EFLAGS_OF, Hi != 0);
  C.setFlag(EFLAGS_AF, false);
  setPZS(C, Lo);
  goto Advance;
}
H_Idiv: {
  uint32_t Src;
  if (!read32(S0, Src))
    goto MemFault;
  const int64_t Dividend = int64_t(
      (uint64_t(Gpr[REG_EDX - REG_EAX]) << 32) | Gpr[REG_EAX - REG_EAX]);
  const int32_t Divisor = int32_t(Src);
  if (Divisor == 0) {
    fault("integer divide by zero");
    Result.Kind = StepKind::Faulted;
    goto Done;
  }
  // INT64_MIN / -1 overflows the host's division too; its quotient is out
  // of range like every other overflowing one.
  if (Divisor == -1 && Dividend == std::numeric_limits<int64_t>::min()) {
    fault("integer divide overflow");
    Result.Kind = StepKind::Faulted;
    goto Done;
  }
  const int64_t Quot = Dividend / Divisor;
  if (Quot > std::numeric_limits<int32_t>::max() ||
      Quot < std::numeric_limits<int32_t>::min()) {
    fault("integer divide overflow");
    Result.Kind = StepKind::Faulted;
    goto Done;
  }
  Gpr[REG_EAX - REG_EAX] = uint32_t(int32_t(Quot));
  Gpr[REG_EDX - REG_EAX] = uint32_t(int32_t(Dividend % Divisor));
  goto Advance;
}
H_Cdq:
  Gpr[REG_EDX - REG_EAX] =
      (Gpr[REG_EAX - REG_EAX] & 0x80000000u) ? 0xFFFFFFFFu : 0;
  goto Advance;
H_Shift: {
  uint32_t N, A;
  if (!read32(S0, N) || !read32(S1, A))
    goto MemFault;
  // A masked count of 0 writes nothing: a memory operand stays unwritten
  // and unmonitored.
  if ((N &= 31) != 0 && !write32(D0, doShift(C, R->Op, A, N)))
    goto MemFault;
  goto Advance;
}

  //===--- generic cases: control transfer ---------------------------------===
H_JmpInd: {
  uint32_t Target;
  if (!read32(S0, Target))
    goto MemFault;
  Cyc += TakenCost;
  if (Pc < RuntimeBase && !Pred.predictIndirect(Pc, Target))
    Cyc += MispredictCost;
  Pc = Target;
  goto Next;
}
H_Call: {
  const AppPc Next = Pc + R->Length;
  const uint32_t NewEsp = Esp - 4;
  if (!Mem.write32(NewEsp, Next))
    goto MemFault;
  noteWrite(NewEsp, 4);
  Esp = NewEsp;
  Cyc += TakenCost;
  if (Pc < RuntimeBase)
    Pred.pushReturn(Next);
  Pc = S0.Value;
  goto Next;
}
H_CallInd: {
  uint32_t Target;
  if (!read32(S0, Target))
    goto MemFault;
  const AppPc Next = Pc + R->Length;
  const uint32_t NewEsp = Esp - 4;
  if (!Mem.write32(NewEsp, Next))
    goto MemFault;
  noteWrite(NewEsp, 4);
  Esp = NewEsp;
  Cyc += TakenCost;
  if (Pc < RuntimeBase) {
    Pred.pushReturn(Next);
    if (!Pred.predictIndirect(Pc, Target))
      Cyc += MispredictCost;
  }
  Pc = Target;
  goto Next;
}
H_Ret: {
  const uint32_t OldEsp = Esp;
  uint32_t Target;
  if (!Mem.read32(OldEsp, Target))
    goto MemFault;
  const uint32_t Extra = R->Op == OP_ret_imm ? S0.Value : 0;
  Esp = OldEsp + 4 + Extra;
  Cyc += TakenCost;
  // Natively, `ret` rides the return-address stack. In the code cache the
  // runtime charges BTB-style costs at the IBL instead (the translated
  // return is an indirect jump there — the paper's key penalty).
  if (Pc < RuntimeBase && !Pred.popReturn(Target))
    Cyc += MispredictCost;
  Pc = Target;
  goto Next;
}

  //===--- generic cases: system -------------------------------------------===
H_Int: {
  Pc += R->Length; // the syscall returns to the following instruction
  const SyscallResult Sys = doSyscall();
  if (Sys == SyscallResult::Fault) {
    Result.Kind = StepKind::Faulted;
    goto Done;
  }
  if (Status == RunStatus::Exited) {
    Result.Kind = StepKind::Exited;
    goto Done;
  }
  if (Sys == SyscallResult::ThreadExited) {
    Result.Kind = StepKind::ThreadExited;
    goto Done;
  }
  if (Sys == SyscallResult::Spawned) {
    Result.Kind = StepKind::ThreadSpawned;
    goto Done;
  }
  assert(&C == CurCpu && "the thread table moved mid-run");
  goto Next;
}
H_Hlt:
  Status = RunStatus::Exited;
  ExitCode = 0;
  Result.Kind = StepKind::Exited;
  goto Done;
H_Nop:
  goto Advance;

  //===--- generic cases: scalar double ------------------------------------===
H_ArithSd: {
  double A, B;
  if (!readF64(S1, A) || !readF64(S0, B))
    goto MemFault;
  const double V = R->Op == OP_addsd   ? A + B
                   : R->Op == OP_subsd ? A - B
                   : R->Op == OP_mulsd ? A * B
                                       : A / B;
  if (!writeF64(D0, V))
    goto MemFault;
  goto Advance;
}
H_Ucomisd: {
  double A, B;
  if (!readF64(S1, A) || !readF64(S0, B))
    goto MemFault;
  const bool Unordered = std::isnan(A) || std::isnan(B);
  C.setFlag(EFLAGS_ZF, Unordered || A == B);
  C.setFlag(EFLAGS_PF, Unordered);
  C.setFlag(EFLAGS_CF, Unordered || A < B);
  C.setFlag(EFLAGS_OF, false);
  C.setFlag(EFLAGS_AF, false);
  C.setFlag(EFLAGS_SF, false);
  goto Advance;
}
H_Cvtsi2sd: {
  uint32_t V;
  if (!read32(S0, V) || !writeF64(D0, double(int32_t(V))))
    goto MemFault;
  goto Advance;
}
H_Cvttsd2si: {
  double V;
  if (!readF64(S0, V))
    goto MemFault;
  int32_t Int;
  if (std::isnan(V) || V >= 2147483648.0 || V < -2147483648.0)
    Int = std::numeric_limits<int32_t>::min(); // "integer indefinite"
  else
    Int = int32_t(V);
  if (!write32(D0, uint32_t(Int)))
    goto MemFault;
  goto Advance;
}

  //===--- generic cases: runtime extensions -------------------------------===
H_ClientCall:
  Pc += R->Length;
  Result.Kind = StepKind::ClientCall;
  Result.ClientCallId = S0.Value;
  goto Done;
H_Savef: {
  const uint32_t Addr = addrOf(D0, Gpr);
  if (!Mem.write32(Addr, C.Eflags))
    goto MemFault;
  noteWrite(Addr, 4);
  goto Advance;
}
H_Restf: {
  uint32_t V;
  if (!Mem.read32(addrOf(S0, Gpr), V))
    goto MemFault;
  C.Eflags = V;
  goto Advance;
}

H_Invalid: // OP_label, OP_INVALID, and opcodes whose operands fit no form
  fault("executed invalid opcode");
  Result.Kind = StepKind::Faulted;
  goto Done;

#undef D0
#undef S1
#undef S0
#undef RIO_FORMS

MemFault:
  fault("memory access out of bounds at pc " + std::to_string(Pc));
  Result.Kind = StepKind::Faulted;
Done:
  CurCpu->Pc = Pc;
  Cycles = Cyc;
  InstrsExecuted = Count;
  LastPc = Last;
  return Result;
}
