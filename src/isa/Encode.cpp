//===- isa/Encode.cpp - RIO-32 instruction encoder -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "isa/Encode.h"

#include "isa/Forms.h"
#include "support/Compiler.h"

using namespace rio;

namespace {

bool fitsInt8(int64_t Value) { return Value >= -128 && Value <= 127; }

/// True if \p Value fits an n-bit immediate slot read either signed or
/// unsigned: [-2^(n-1), 2^n - 1].
bool fitsBits(int64_t Value, unsigned Bits) {
  return Value >= -(int64_t(1) << (Bits - 1)) && Value < int64_t(1) << Bits;
}

/// Byte emitter with a fixed-size output buffer.
class Emitter {
public:
  explicit Emitter(uint8_t *Out) : Out(Out) {}

  void u8(uint8_t Byte) {
    assert(Len < MaxInstrLength && "instruction too long");
    Out[Len++] = Byte;
  }
  void u16(uint16_t Value) {
    u8(uint8_t(Value));
    u8(uint8_t(Value >> 8));
  }
  void u32(uint32_t Value) {
    u8(uint8_t(Value));
    u8(uint8_t(Value >> 8));
    u8(uint8_t(Value >> 16));
    u8(uint8_t(Value >> 24));
  }
  unsigned length() const { return Len; }
  void truncate(unsigned Length) { Len = Length; }

private:
  uint8_t *Out;
  unsigned Len = 0;
};

/// Emits a ModRM byte (plus SIB and displacement) for \p Rm with \p RegField
/// in the reg slot. \p Rm must be a register or memory operand.
void emitModRm(Emitter &E, uint8_t RegField, const Operand &Rm) {
  if (Rm.isReg()) {
    E.u8(uint8_t(0xC0 | (RegField << 3) | regEncoding(Rm.getReg())));
    return;
  }
  assert(Rm.isMem() && "rm operand must be reg or mem");
  Register Base = Rm.getBase();
  Register Index = Rm.getIndex();
  int32_t Disp = Rm.getDisp();

  if (Base == REG_NULL && Index == REG_NULL) {
    // Absolute: mod=00 rm=101 disp32.
    E.u8(uint8_t(0x00 | (RegField << 3) | 5));
    E.u32(uint32_t(Disp));
    return;
  }

  bool NeedSib = Index != REG_NULL || Base == REG_ESP || Base == REG_NULL;
  uint8_t RmBits = NeedSib ? 4 : regEncoding(Base);

  // Choose the displacement width. A missing base (SIB base=101, mod=00)
  // forces disp32; a base of EBP cannot use the no-displacement form.
  uint8_t Mod;
  if (Base == REG_NULL) {
    Mod = 0;
  } else if (Disp == 0 && Base != REG_EBP) {
    Mod = 0;
  } else if (fitsInt8(Disp)) {
    Mod = 1;
  } else {
    Mod = 2;
  }

  E.u8(uint8_t((Mod << 6) | (RegField << 3) | RmBits));

  if (NeedSib) {
    uint8_t ScaleBits = 0;
    switch (Rm.getScale()) {
    case 1:
      ScaleBits = 0;
      break;
    case 2:
      ScaleBits = 1;
      break;
    case 4:
      ScaleBits = 2;
      break;
    case 8:
      ScaleBits = 3;
      break;
    default:
      RIO_UNREACHABLE("invalid scale");
    }
    uint8_t IndexBits = Index == REG_NULL ? 4 : regEncoding(Index);
    uint8_t BaseBits = Base == REG_NULL ? 5 : regEncoding(Base);
    E.u8(uint8_t((ScaleBits << 6) | (IndexBits << 3) | BaseBits));
  }

  if (Base == REG_NULL)
    E.u32(uint32_t(Disp));
  else if (Mod == 1)
    E.u8(uint8_t(int8_t(Disp)));
  else if (Mod == 2)
    E.u32(uint32_t(Disp));
}

constexpr uint64_t bit(Slot S) { return slotBit(S, 0); }

/// The set of slots operand \p O fits, as a mask of bit(Slot). An
/// immediate fits the slots wide enough to hold it. Branch targets fit both
/// rel slots here; a rel8 range is checked as the row is emitted.
uint64_t slotsFitting(const Operand &O) {
  if (O.isReg()) {
    Register R = O.getReg();
    if (isGpr32(R))
      return bit(Slot::R32) | bit(Slot::Rm32) |
             (R == REG_EAX ? bit(Slot::Eax) : 0);
    if (isGpr8(R))
      return bit(Slot::R8) | bit(Slot::Rm8) | (R == REG_CL ? bit(Slot::Cl) : 0);
    return isXmm(R) ? bit(Slot::Xmm) | bit(Slot::Xm64) : 0;
  }
  if (O.isMem()) {
    uint8_t Size = O.sizeBytes();
    return bit(Slot::M) | (Size == 1 ? bit(Slot::Rm8) : 0) |
           (Size == 2 ? bit(Slot::M16) : 0) |
           (Size == 4 ? bit(Slot::Rm32) : 0) |
           (Size == 8 ? bit(Slot::Xm64) : 0);
  }
  if (O.isImm()) {
    int64_t V = O.getImm();
    return (fitsBits(V, 8) ? bit(Slot::Imm8) | bit(Slot::ImmU8) : 0) |
           (fitsBits(V, 16) ? bit(Slot::ImmU16) : 0) |
           (fitsBits(V, 32) ? bit(Slot::Imm32) | bit(Slot::ImmU32) : 0) |
           (fitsInt8(V) ? bit(Slot::ImmS8) : 0) | (V == 1 ? bit(Slot::One) : 0);
  }
  return O.isPc() ? bit(Slot::Rel8) | bit(Slot::Rel32) : 0;
}

/// Emits form \p F of \p Op with explicit operands \p Ex, which fit its
/// slots. \returns false if a rel8 target is out of range.
bool emitForm(Emitter &E, const Form &F, Opcode Op, const Operand *Ex,
              AppPc Pc) {
  if (F.Map == OpMap::F2Esc0F)
    E.u8(0xF2);
  else if (F.Map == OpMap::P66Esc0F)
    E.u8(0x66);
  if (F.Map != OpMap::OneByte)
    E.u8(0x0F);

  uint8_t Byte = F.Byte;
  if (F.Ext == PlusR)
    Byte = uint8_t(Byte + regEncoding(Ex[F.RegIdx].getReg()));
  else if (F.Ext == PlusCc)
    Byte = uint8_t(Byte + (Op - F.Op));
  E.u8(Byte);
  if (F.hasModRm())
    emitModRm(E,
              F.Ext == SlashR ? regEncoding(Ex[F.RegIdx].getReg())
                              : uint8_t(F.Ext),
              Ex[F.RmIdx]);

  if (F.NumOps == 0)
    return true;
  const Operand &Last = Ex[F.NumOps - 1];
  switch (F.Ops[F.NumOps - 1]) {
  case Slot::ImmS8:
  case Slot::Imm8:
  case Slot::ImmU8:
    E.u8(uint8_t(Last.getImm()));
    break;
  case Slot::ImmU16:
    E.u16(uint16_t(Last.getImm()));
    break;
  case Slot::Imm32:
  case Slot::ImmU32:
    E.u32(uint32_t(Last.getImm()));
    break;
  case Slot::Rel8: {
    int64_t Rel = int64_t(Last.getPc()) - int64_t(Pc + E.length() + 1);
    if (!fitsInt8(Rel))
      return false;
    E.u8(uint8_t(int8_t(Rel)));
    break;
  }
  case Slot::Rel32:
    E.u32(uint32_t(
        int32_t(int64_t(Last.getPc()) - int64_t(Pc + E.length() + 4))));
    break;
  default:
    break; // registers, memory and implicit operands: placed above
  }
  return true;
}

} // namespace

int rio::encodeInstr(Opcode Op, uint8_t Prefixes, const Operand *Srcs,
                     unsigned NumSrcs, const Operand *Dsts, unsigned NumDsts,
                     AppPc Pc, uint8_t *Out, const EncodeOptions &Opts) {
  if (Op == OP_label)
    return 0; // pseudo-instruction: no bytes

  Operand Ex[MaxExplicit];
  unsigned NumEx = getExplicitOperands(Op, Srcs, NumSrcs, Dsts, NumDsts, Ex);

  Emitter E(Out);
  if (Prefixes & PREFIX_LOCK)
    E.u8(0xF0);
  if (Prefixes & PREFIX_HINT)
    E.u8(0x3E);
  unsigned PrefixLen = E.length();

  uint64_t Fitting = 0;
  for (unsigned Pos = 0; Pos != MaxExplicit; ++Pos)
    Fitting |= Pos < NumEx ? slotsFitting(Ex[Pos]) << (Pos * NumSlots)
                           : slotBit(Slot::None, Pos);

  // The first row whose pattern accepts the operands; rows are listed
  // shortest first.
  for (const Form *F : formsForOpcode(Op)) {
    if ((F->Pattern & Fitting) != F->Pattern ||
        ((F->Flags & FORM_SHORT_BRANCH) && !Opts.AllowShortBranches))
      continue;
    if (emitForm(E, *F, Op, Ex, Pc))
      return int(E.length());
    E.truncate(PrefixLen);
  }
  return -1;
}
