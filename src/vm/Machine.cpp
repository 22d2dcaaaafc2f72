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

/// How the interpreter accesses one operand slot of an opcode.
enum class Use : uint8_t {
  None,     ///< not accessed through the operand (or implicit)
  Read32,   ///< 32-bit read: gpr32, gpr8 (zero-extended), imm, pc, mem
  Write32,  ///< 32-bit write: gpr32, mem
  Read8,    ///< byte read: gpr8, imm, mem
  Write8,   ///< byte write: gpr8, mem
  ReadF64,  ///< double read: xmm, mem
  WriteF64, ///< double write: xmm, mem
  Addr,     ///< address computation only: mem
  Target,   ///< direct branch target: pc
  Imm       ///< immediate: imm
};

/// Operand uses of Srcs[0], Srcs[1], Dsts[0], Dsts[1] for each opcode:
/// the accesses Machine::execute makes (isa/OperandLayout.h has the full
/// canonical layouts, implicit operands included).
struct Uses {
  Use S0 = Use::None, S1 = Use::None, D0 = Use::None, D1 = Use::None;
};

Uses usesOf(Opcode Op) {
  switch (Op) {
  case OP_mov:
  case OP_inc:
  case OP_dec:
  case OP_neg:
  case OP_not:
    return {Use::Read32, Use::None, Use::Write32};
  case OP_mov_b:
    return {Use::Read8, Use::None, Use::Write8};
  case OP_movzx_b:
  case OP_movsx_b:
    return {Use::Read8, Use::None, Use::Write32};
  case OP_movzx_w:
  case OP_movsx_w:
  case OP_lea:
    return {Use::Addr, Use::None, Use::Write32};
  case OP_xchg:
    return {Use::Read32, Use::Read32, Use::Write32, Use::Write32};
  case OP_push:
  case OP_mul:
  case OP_idiv:
  case OP_jmp_ind:
  case OP_call_ind:
    return {Use::Read32};
  case OP_pop:
    return {Use::None, Use::None, Use::Write32};
  case OP_add:
  case OP_adc:
  case OP_sub:
  case OP_sbb:
  case OP_and:
  case OP_or:
  case OP_xor:
  case OP_imul:
  case OP_shl:
  case OP_shr:
  case OP_sar:
    return {Use::Read32, Use::Read32, Use::Write32};
  case OP_cmp:
  case OP_test:
    return {Use::Read32, Use::Read32};
  case OP_movsd:
    return {Use::ReadF64, Use::None, Use::WriteF64};
  case OP_addsd:
  case OP_subsd:
  case OP_mulsd:
  case OP_divsd:
    return {Use::ReadF64, Use::ReadF64, Use::WriteF64};
  case OP_ucomisd:
    return {Use::ReadF64, Use::ReadF64};
  case OP_cvtsi2sd:
    return {Use::Read32, Use::None, Use::WriteF64};
  case OP_cvttsd2si:
    return {Use::ReadF64, Use::None, Use::Write32};
  case OP_ret_imm:
  case OP_clientcall:
    return {Use::Imm};
  case OP_savef:
    return {Use::None, Use::None, Use::Addr};
  case OP_restf:
    return {Use::Addr};
  default:
    if (Op == OP_jmp || Op == OP_call || Op == OP_jecxz ||
        (Op >= OP_jo && Op <= OP_jnle))
      return {Use::Target};
    return {};
  }
}

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

/// Builds the record the interpreter runs from \p DI, asserting once the
/// operand invariants every execution of it relies on.
void predecode(const DecodedInstr &DI, unsigned Cost, PredecodedInstr &R) {
  const Uses U = usesOf(DI.Op);
  assert(usable(DI.Srcs[0], U.S0) && usable(DI.Srcs[1], U.S1) &&
         usable(DI.Dsts[0], U.D0) && usable(DI.Dsts[1], U.D1) &&
         "operand does not fit its opcode's use");
  (void)U;
  R.Op = DI.Op;
  R.Length = DI.Length;
  R.Stop = false;
  R.Cost = Cost;
  R.Src[0] = predecodeOp(DI.Srcs[0]);
  R.Src[1] = predecodeOp(DI.Srcs[1]);
  R.Dst[0] = predecodeOp(DI.Dsts[0]);
  R.Dst[1] = predecodeOp(DI.Dsts[1]);
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
  LineState.mut(Pc / WriteWatchLine) |= 1; // sticky: stores here invalidate
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

uint32_t Machine::addrOf(const PredecodedOp &Op) const {
  // predecode() asserted the operand is a memory reference.
  uint32_t A = Op.Value;
  if (Op.Reg != PredecodedOp::NoSlot)
    A += CurCpu->Gpr[Op.Reg];
  if (Op.Index != PredecodedOp::NoSlot)
    A += CurCpu->Gpr[Op.Index] * Op.Aux;
  return A;
}

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
    return Mem.read32(addrOf(Op), Value);
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
    uint32_t Addr = addrOf(Op);
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
    return Mem.read8(addrOf(Op), Value);
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
    uint32_t Addr = addrOf(Op);
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
    return Mem.readF64(addrOf(Op), Value);
  return false;
}

bool Machine::writeF64(const PredecodedOp &Op, double Value) {
  if (Op.K == PredecodedOp::Xmm) {
    CurCpu->Xmm[Op.Reg] = Value;
    return true;
  }
  if (Op.K == PredecodedOp::Mem) {
    uint32_t Addr = addrOf(Op);
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

inline void doLogicFlags(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~ArithFlags) | pzsBits(Result);
}

bool condHolds(const CpuState &St, unsigned Cc) {
  bool CF = St.flag(EFLAGS_CF);
  bool PF = St.flag(EFLAGS_PF);
  bool ZF = St.flag(EFLAGS_ZF);
  bool SF = St.flag(EFLAGS_SF);
  bool OF = St.flag(EFLAGS_OF);
  bool Result;
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
  default:
    RIO_UNREACHABLE("bad condition code");
  }
  return (Cc & 1) ? !Result : Result;
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
  AppPc Pc = CurCpu->Pc;
  if (RIO_UNLIKELY(Cycles >= Stops.CycleLimit))
    return Result;
  if (RIO_UNLIKELY(InstrsExecuted >= InstrStop)) {
    if (InstrsExecuted >= Stops.InstrLimit)
      return Result;
    LastPc = Pc;
    fault("instruction budget exceeded");
    Result.Kind = StepKind::Faulted;
    return Result;
  }
  // The log may already be ahead of a cursor that lagged (another runtime
  // on this machine wrote watched code): stop after one instruction then.
  bool LogAhead = CodeWrites.size() > Stops.CodeWriteCursor;
  for (bool First = true;; First = false) {
    // One line probe serves the record, its memoized cycle cost and its
    // stop mark. The caller has just serviced the first pc's mark.
    const PredecodedInstr *R = fetchDecode(Pc);
    if (RIO_UNLIKELY(R && R->Stop) && !First)
      return Result;
    LastPc = Pc;
    if (RIO_UNLIKELY(!R)) {
      fault("undecodable instruction at pc");
      Result.Kind = StepKind::Faulted;
      return Result;
    }
    Cycles += R->Cost;
    ++InstrsExecuted;
    const bool Completed = execute(*R, Pc, Result);
    if (RIO_UNLIKELY(CodeWritten)) {
      CodeWritten = false;
      LogAhead = CodeWrites.size() > Stops.CodeWriteCursor;
    }
    if (!Completed || RIO_UNLIKELY(LogAhead) ||
        RIO_UNLIKELY(InstrsExecuted >= InstrStop))
      return Result;
    Pc = CurCpu->Pc;
    if (RIO_UNLIKELY(Pc == Stops.StopPc || Pc < Stops.LowPc ||
                     Cycles >= Stops.CycleLimit))
      return Result;
  }
}

bool Machine::memFault(AppPc Pc, StepResult &Result) {
  fault("memory access out of bounds at pc " + std::to_string(Pc));
  Result.Kind = StepKind::Faulted;
  return false;
}

bool Machine::execute(const PredecodedInstr &R, AppPc Pc,
                      StepResult &Result) {
  const CostModel &CM = Config.Cost;
  CpuState &C = *CurCpu;
  const AppPc Next = Pc + R.Length;
  const bool InApp = !inRuntimeRegion(Pc);
  uint32_t &Esp = C.Gpr[REG_ESP - REG_EAX];
  bool Ok = true;

  switch (R.Op) {
  //===--- data movement -------------------------------------------------===
  case OP_mov: {
    uint32_t V;
    Ok = read32(R.Src[0], V) && write32(R.Dst[0], V);
    break;
  }
  case OP_mov_b: {
    uint8_t V;
    Ok = read8(R.Src[0], V) && write8(R.Dst[0], V);
    break;
  }
  case OP_movzx_b: {
    uint8_t V;
    Ok = read8(R.Src[0], V) && write32(R.Dst[0], V);
    break;
  }
  case OP_movsx_b: {
    uint8_t V;
    Ok = read8(R.Src[0], V) &&
         write32(R.Dst[0], uint32_t(int32_t(int8_t(V))));
    break;
  }
  case OP_movzx_w:
  case OP_movsx_w: {
    uint16_t V;
    Ok = Mem.read16(addrOf(R.Src[0]), V);
    if (Ok)
      Ok = write32(R.Dst[0], R.Op == OP_movzx_w
                                 ? uint32_t(V)
                                 : uint32_t(int32_t(int16_t(V))));
    break;
  }
  case OP_lea:
    Ok = write32(R.Dst[0], addrOf(R.Src[0]));
    break;
  case OP_xchg: {
    uint32_t A, B;
    Ok = read32(R.Src[0], A) && read32(R.Src[1], B) && write32(R.Dst[0], B) &&
         write32(R.Dst[1], A);
    break;
  }
  case OP_push: {
    uint32_t V;
    Ok = read32(R.Src[0], V);
    if (Ok) {
      uint32_t NewEsp = Esp - 4;
      Ok = Mem.write32(NewEsp, V);
      if (Ok) {
        noteWrite(NewEsp, 4);
        Esp = NewEsp;
      }
    }
    break;
  }
  case OP_pop: {
    uint32_t OldEsp = Esp;
    uint32_t V;
    Ok = Mem.read32(OldEsp, V);
    if (Ok) {
      // Order matters for `pop esp`-style cases: write the value last.
      Esp = OldEsp + 4;
      Ok = write32(R.Dst[0], V);
    }
    break;
  }

  //===--- integer ALU ---------------------------------------------------===
  case OP_add:
  case OP_adc: {
    uint32_t A, B;
    Ok = read32(R.Src[1], A) && read32(R.Src[0], B);
    if (Ok) {
      uint32_t Cin = R.Op == OP_adc && C.flag(EFLAGS_CF) ? 1 : 0;
      Ok = write32(R.Dst[0], doAdd(C, A, B, Cin));
    }
    break;
  }
  case OP_sub:
  case OP_sbb: {
    uint32_t A, B;
    Ok = read32(R.Src[1], A) && read32(R.Src[0], B);
    if (Ok) {
      uint32_t Bin = R.Op == OP_sbb && C.flag(EFLAGS_CF) ? 1 : 0;
      Ok = write32(R.Dst[0], doSub(C, A, B, Bin));
    }
    break;
  }
  case OP_cmp: {
    uint32_t A, B;
    Ok = read32(R.Src[1], A) && read32(R.Src[0], B);
    if (Ok)
      doSub(C, A, B, 0);
    break;
  }
  case OP_and:
  case OP_or:
  case OP_xor: {
    uint32_t A, B;
    Ok = read32(R.Src[1], A) && read32(R.Src[0], B);
    if (Ok) {
      uint32_t V = R.Op == OP_and ? (A & B) : R.Op == OP_or ? (A | B)
                                                            : (A ^ B);
      doLogicFlags(C, V);
      Ok = write32(R.Dst[0], V);
    }
    break;
  }
  case OP_test: {
    uint32_t A, B;
    Ok = read32(R.Src[1], A) && read32(R.Src[0], B);
    if (Ok)
      doLogicFlags(C, A & B);
    break;
  }
  case OP_inc:
  case OP_dec: {
    uint32_t A;
    Ok = read32(R.Src[0], A);
    if (Ok) {
      // inc/dec leave CF untouched — the hinge of the paper's Section 4.2.
      uint32_t V = R.Op == OP_inc ? doAdd(C, A, 1, 0, /*WriteCarry=*/false)
                                  : doSub(C, A, 1, 0, /*WriteCarry=*/false);
      Ok = write32(R.Dst[0], V);
    }
    break;
  }
  case OP_neg: {
    uint32_t A;
    Ok = read32(R.Src[0], A);
    if (Ok)
      Ok = write32(R.Dst[0], doSub(C, 0, A, 0));
    break;
  }
  case OP_not: {
    uint32_t A;
    Ok = read32(R.Src[0], A) && write32(R.Dst[0], ~A);
    break;
  }
  case OP_imul: {
    // Two forms share canonical shape S={x, y}, D={r}.
    uint32_t A, B;
    Ok = read32(R.Src[0], A) && read32(R.Src[1], B);
    if (Ok) {
      int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
      uint32_t V = uint32_t(Full);
      bool Overflow = Full != int64_t(int32_t(V));
      C.setFlag(EFLAGS_CF, Overflow);
      C.setFlag(EFLAGS_OF, Overflow);
      C.setFlag(EFLAGS_AF, false);
      setPZS(C, V);
      Ok = write32(R.Dst[0], V);
    }
    break;
  }
  case OP_mul: {
    uint32_t Src;
    Ok = read32(R.Src[0], Src);
    if (Ok) {
      uint64_t Full = uint64_t(C.Gpr[REG_EAX - REG_EAX]) * Src;
      uint32_t Lo = uint32_t(Full), Hi = uint32_t(Full >> 32);
      C.Gpr[REG_EAX - REG_EAX] = Lo;
      C.Gpr[REG_EDX - REG_EAX] = Hi;
      C.setFlag(EFLAGS_CF, Hi != 0);
      C.setFlag(EFLAGS_OF, Hi != 0);
      C.setFlag(EFLAGS_AF, false);
      setPZS(C, Lo);
    }
    break;
  }
  case OP_idiv: {
    uint32_t Src;
    Ok = read32(R.Src[0], Src);
    if (Ok) {
      int64_t Dividend = int64_t((uint64_t(C.Gpr[REG_EDX - REG_EAX]) << 32) |
                                 C.Gpr[REG_EAX - REG_EAX]);
      int32_t Divisor = int32_t(Src);
      if (Divisor == 0) {
        fault("integer divide by zero");
        Result.Kind = StepKind::Faulted;
        return false;
      }
      // INT64_MIN / -1 overflows the host's division too; its quotient is
      // out of range like every other overflowing one.
      if (Divisor == -1 && Dividend == std::numeric_limits<int64_t>::min()) {
        fault("integer divide overflow");
        Result.Kind = StepKind::Faulted;
        return false;
      }
      int64_t Quot = Dividend / Divisor;
      if (Quot > std::numeric_limits<int32_t>::max() ||
          Quot < std::numeric_limits<int32_t>::min()) {
        fault("integer divide overflow");
        Result.Kind = StepKind::Faulted;
        return false;
      }
      C.Gpr[REG_EAX - REG_EAX] = uint32_t(int32_t(Quot));
      C.Gpr[REG_EDX - REG_EAX] = uint32_t(int32_t(Dividend % Divisor));
    }
    break;
  }
  case OP_cdq:
    C.Gpr[REG_EDX - REG_EAX] =
        (C.Gpr[REG_EAX - REG_EAX] & 0x80000000u) ? 0xFFFFFFFFu : 0;
    break;

  case OP_shl:
  case OP_shr:
  case OP_sar: {
    uint32_t Count, A;
    Ok = read32(R.Src[0], Count) && read32(R.Src[1], A);
    if (Ok) {
      Count &= 31;
      if (Count == 0)
        break; // no result change, no flag change
      uint32_t V;
      bool LastOut;
      if (R.Op == OP_shl) {
        LastOut = ((A >> (32 - Count)) & 1) != 0;
        V = A << Count;
        C.setFlag(EFLAGS_OF, Count == 1 && ((V >> 31) != 0) != LastOut);
      } else if (R.Op == OP_shr) {
        LastOut = ((A >> (Count - 1)) & 1) != 0;
        V = A >> Count;
        C.setFlag(EFLAGS_OF, Count == 1 && (A >> 31) != 0);
      } else {
        LastOut = ((uint32_t(int32_t(A) >> (Count - 1))) & 1) != 0;
        V = uint32_t(int32_t(A) >> Count);
        C.setFlag(EFLAGS_OF, false);
      }
      C.setFlag(EFLAGS_CF, LastOut);
      C.setFlag(EFLAGS_AF, false);
      setPZS(C, V);
      Ok = write32(R.Dst[0], V);
    }
    break;
  }

  //===--- control transfer ----------------------------------------------===
  case OP_jmp:
    Cycles += CM.TakenBranchCost;
    C.Pc = R.Src[0].Value;
    return true;

  case OP_jmp_ind: {
    uint32_t Target;
    if (!read32(R.Src[0], Target))
      return memFault(Pc, Result);
    Cycles += CM.TakenBranchCost;
    if (InApp && !Pred.predictIndirect(Pc, Target))
      Cycles += CM.MispredictPenalty;
    C.Pc = Target;
    return true;
  }

  case OP_call: {
    uint32_t NewEsp = Esp - 4;
    if (!Mem.write32(NewEsp, Next))
      return memFault(Pc, Result);
    noteWrite(NewEsp, 4);
    Esp = NewEsp;
    Cycles += CM.TakenBranchCost;
    if (InApp)
      Pred.pushReturn(Next);
    C.Pc = R.Src[0].Value;
    return true;
  }

  case OP_call_ind: {
    uint32_t Target;
    if (!read32(R.Src[0], Target))
      return memFault(Pc, Result);
    uint32_t NewEsp = Esp - 4;
    if (!Mem.write32(NewEsp, Next))
      return memFault(Pc, Result);
    noteWrite(NewEsp, 4);
    Esp = NewEsp;
    Cycles += CM.TakenBranchCost;
    if (InApp) {
      Pred.pushReturn(Next);
      if (!Pred.predictIndirect(Pc, Target))
        Cycles += CM.MispredictPenalty;
    }
    C.Pc = Target;
    return true;
  }

  case OP_ret:
  case OP_ret_imm: {
    uint32_t OldEsp = Esp;
    uint32_t Target;
    if (!Mem.read32(OldEsp, Target))
      return memFault(Pc, Result);
    uint32_t Extra = R.Op == OP_ret_imm ? R.Src[0].Value : 0;
    Esp = OldEsp + 4 + Extra;
    Cycles += CM.TakenBranchCost;
    // Natively, `ret` rides the return-address stack. In the code cache the
    // runtime charges BTB-style costs at the IBL instead (the translated
    // return is an indirect jump there — the paper's key penalty).
    if (InApp && !Pred.popReturn(Target))
      Cycles += CM.MispredictPenalty;
    C.Pc = Target;
    return true;
  }

  case OP_jo:
  case OP_jno:
  case OP_jb:
  case OP_jnb:
  case OP_jz:
  case OP_jnz:
  case OP_jbe:
  case OP_jnbe:
  case OP_js:
  case OP_jns:
  case OP_jp:
  case OP_jnp:
  case OP_jl:
  case OP_jnl:
  case OP_jle:
  case OP_jnle:
  case OP_jecxz: {
    bool Taken = R.Op == OP_jecxz ? C.Gpr[REG_ECX - REG_EAX] == 0
                                  : condHolds(C, condCodeOf(R.Op));
    if (!Pred.predictCond(Pc, Taken))
      Cycles += CM.MispredictPenalty;
    if (Taken) {
      Cycles += CM.TakenBranchCost;
      C.Pc = R.Src[0].Value;
    } else {
      C.Pc = Next;
    }
    return true;
  }

  //===--- system --------------------------------------------------------===
  case OP_int: {
    C.Pc = Next; // syscall returns to the following instruction
    SyscallResult Sys = doSyscall();
    if (Sys == SyscallResult::Fault) {
      Result.Kind = StepKind::Faulted;
      return false;
    }
    if (Status == RunStatus::Exited) {
      Result.Kind = StepKind::Exited;
      return false;
    }
    if (Sys == SyscallResult::ThreadExited) {
      Result.Kind = StepKind::ThreadExited;
      return false;
    }
    if (Sys == SyscallResult::Spawned) {
      Result.Kind = StepKind::ThreadSpawned;
      return false;
    }
    return true;
  }

  case OP_hlt:
    Status = RunStatus::Exited;
    ExitCode = 0;
    Result.Kind = StepKind::Exited;
    return false;

  case OP_nop:
    break;

  //===--- scalar double -------------------------------------------------===
  case OP_movsd: {
    double V;
    Ok = readF64(R.Src[0], V) && writeF64(R.Dst[0], V);
    break;
  }
  case OP_addsd:
  case OP_subsd:
  case OP_mulsd:
  case OP_divsd: {
    double A, B;
    Ok = readF64(R.Src[1], A) && readF64(R.Src[0], B);
    if (Ok) {
      double V = R.Op == OP_addsd   ? A + B
                 : R.Op == OP_subsd ? A - B
                 : R.Op == OP_mulsd ? A * B
                                    : A / B;
      Ok = writeF64(R.Dst[0], V);
    }
    break;
  }
  case OP_ucomisd: {
    double A, B;
    Ok = readF64(R.Src[1], A) && readF64(R.Src[0], B);
    if (Ok) {
      bool Unordered = std::isnan(A) || std::isnan(B);
      C.setFlag(EFLAGS_ZF, Unordered || A == B);
      C.setFlag(EFLAGS_PF, Unordered);
      C.setFlag(EFLAGS_CF, Unordered || A < B);
      C.setFlag(EFLAGS_OF, false);
      C.setFlag(EFLAGS_AF, false);
      C.setFlag(EFLAGS_SF, false);
    }
    break;
  }
  case OP_cvtsi2sd: {
    uint32_t V;
    Ok = read32(R.Src[0], V) && writeF64(R.Dst[0], double(int32_t(V)));
    break;
  }
  case OP_cvttsd2si: {
    double V;
    Ok = readF64(R.Src[0], V);
    if (Ok) {
      int32_t Int;
      if (std::isnan(V) || V >= 2147483648.0 || V < -2147483648.0)
        Int = std::numeric_limits<int32_t>::min(); // x86 "integer indefinite"
      else
        Int = int32_t(V);
      Ok = write32(R.Dst[0], uint32_t(Int));
    }
    break;
  }

  //===--- runtime extensions --------------------------------------------===
  case OP_clientcall:
    C.Pc = Next;
    Result.Kind = StepKind::ClientCall;
    Result.ClientCallId = R.Src[0].Value;
    return false;

  case OP_savef: {
    uint32_t Addr = addrOf(R.Dst[0]);
    Ok = Mem.write32(Addr, C.Eflags);
    if (Ok)
      noteWrite(Addr, 4);
    break;
  }
  case OP_restf: {
    uint32_t V;
    Ok = Mem.read32(addrOf(R.Src[0]), V);
    if (Ok)
      C.Eflags = V;
    break;
  }

  case OP_label:
  case OP_INVALID:
  default:
    fault("executed invalid opcode");
    Result.Kind = StepKind::Faulted;
    return false;
  }

  if (!Ok)
    return memFault(Pc, Result);
  C.Pc = Next;
  return true;
}
