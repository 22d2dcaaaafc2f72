//===- isa/Decode.cpp - RIO-32 instruction decoder -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "isa/Decode.h"

#include "isa/Eflags.h"
#include "isa/Forms.h"

using namespace rio;

namespace {

/// The register numbered \p Encoding in the class of slot \p S.
Register regOfSlot(Slot S, uint8_t Encoding) {
  switch (S) {
  case Slot::R8:
  case Slot::Rm8:
    return Register(REG_AL + Encoding);
  case Slot::Xmm:
  case Slot::Xm64:
    return Register(REG_XMM0 + Encoding);
  default:
    return Register(REG_EAX + Encoding);
  }
}

/// Memory access width of an rm slot (M: the form ignores it; 4 bytes).
uint8_t memSizeOfSlot(Slot S) {
  switch (S) {
  case Slot::Rm8:
    return 1;
  case Slot::M16:
    return 2;
  case Slot::Xm64:
    return 8;
  default:
    return 4;
  }
}

/// Bounded byte reader over the instruction bytes.
class Cursor {
public:
  Cursor(const uint8_t *Bytes, size_t Avail) : Bytes(Bytes), Avail(Avail) {}

  bool atEnd() const { return Pos >= Avail || Pos >= MaxInstrLength; }
  bool failed() const { return Failed; }
  size_t position() const { return Pos; }

  uint8_t u8() {
    if (atEnd()) {
      Failed = true;
      return 0;
    }
    return Bytes[Pos++];
  }

  uint16_t u16() {
    uint16_t Lo = u8();
    return uint16_t(Lo | (uint16_t(u8()) << 8));
  }

  uint32_t u32() {
    uint32_t V = u8();
    V |= uint32_t(u8()) << 8;
    V |= uint32_t(u8()) << 16;
    V |= uint32_t(u8()) << 24;
    return V;
  }

  int8_t s8() { return int8_t(u8()); }
  int32_t s32() { return int32_t(u32()); }

private:
  const uint8_t *Bytes;
  size_t Avail;
  size_t Pos = 0;
  bool Failed = false;
};

/// Reads the rest of a ModRM operand (SIB and displacement) after the ModRM
/// byte \p ModRm, for rm slot \p S, and builds it in \p Rm if non-null.
/// \returns false on a register operand in a memory-only slot.
bool parseRm(Cursor &Cur, uint8_t ModRm, Slot S, Operand *Rm) {
  uint8_t Mod = ModRm >> 6;
  uint8_t RmBits = ModRm & 7;

  if (Mod == 3) {
    if (S == Slot::M16 || S == Slot::M)
      return false;
    if (Rm)
      *Rm = Operand::reg(regOfSlot(S, RmBits));
    return true;
  }

  Register Base = REG_NULL;
  Register Index = REG_NULL;
  uint8_t Scale = 1;
  int32_t Disp = 0;

  if (RmBits == 4) {
    // SIB byte.
    uint8_t Sib = Cur.u8();
    uint8_t ScaleBits = Sib >> 6;
    uint8_t IndexBits = (Sib >> 3) & 7;
    uint8_t BaseBits = Sib & 7;
    Scale = uint8_t(1u << ScaleBits);
    if (IndexBits != 4)
      Index = Register(REG_EAX + IndexBits);
    if (BaseBits == 5 && Mod == 0) {
      Disp = Cur.s32();
    } else {
      Base = Register(REG_EAX + BaseBits);
    }
  } else if (RmBits == 5 && Mod == 0) {
    // Absolute disp32, no base.
    Disp = Cur.s32();
  } else {
    Base = Register(REG_EAX + RmBits);
  }

  if (Mod == 1)
    Disp += Cur.s8();
  else if (Mod == 2)
    Disp += Cur.s32();

  if (Rm)
    *Rm = Operand::mem(Base, Disp, memSizeOfSlot(S), Index,
                       Index ? Scale : 1);
  return true;
}

/// Decodes one instruction: prefixes, opcode map and byte, then the first
/// form row for that byte whose /digit matches, then its operand slots.
/// Sets \p Op, \p Eflags and \p Length (all that Levels 0-2 need); with
/// \p Full, also fills in the prefixes and canonical operands (Levels 3-4).
/// Both ways read the same rows, so they accept exactly the same bytes.
bool decode(const uint8_t *Bytes, size_t Avail, AppPc Pc, Opcode &Op,
            uint32_t &Eflags, int &Length, DecodedInstr *Full) {
  Cursor Cur(Bytes, Avail);
  uint8_t Prefixes = 0;
  bool MandF2 = false, Mand66 = false;
  uint8_t Byte;
  for (;;) {
    Byte = Cur.u8();
    if (Cur.failed())
      return false;
    if (Byte == 0xF0)
      Prefixes |= PREFIX_LOCK;
    else if (Byte == 0x3E)
      Prefixes |= PREFIX_HINT;
    else if (Byte == 0xF2)
      MandF2 = true;
    else if (Byte == 0x66)
      Mand66 = true;
    else
      break;
  }

  OpMap Map = OpMap::OneByte;
  if (Byte == 0x0F) {
    Map = MandF2 ? OpMap::F2Esc0F : Mand66 ? OpMap::P66Esc0F : OpMap::Esc0F;
    Byte = Cur.u8();
    if (Cur.failed())
      return false;
  } else if (MandF2 || Mand66) {
    return false; // mandatory prefixes only combine with 0x0F opcodes
  }

  std::span<const Form *const> Rows = formsForByte(Map, Byte);
  if (Rows.empty())
    return false;
  const Form *F = Rows.front();
  uint8_t ModRm = 0;
  if (F->hasModRm()) {
    ModRm = Cur.u8();
    int8_t Digit = int8_t((ModRm >> 3) & 7);
    F = nullptr;
    for (const Form *Row : Rows)
      if (Row->Ext == SlashR || Row->Ext == Digit) {
        F = Row;
        break;
      }
    if (!F)
      return false;
  }

  // The low bits of a +r or +cc opcode byte.
  uint8_t Low = uint8_t(Byte - F->Byte);
  Operand Ex[MaxExplicit];
  for (unsigned I = 0; I != F->NumOps; ++I) {
    switch (Slot S = F->Ops[I]) {
    case Slot::None:
      break;
    case Slot::R32:
    case Slot::R8:
    case Slot::Xmm:
      Ex[I] = Operand::reg(
          regOfSlot(S, F->Ext == PlusR ? Low : uint8_t((ModRm >> 3) & 7)));
      break;
    case Slot::Rm32:
    case Slot::Rm8:
    case Slot::Xm64:
    case Slot::M16:
    case Slot::M:
      if (!parseRm(Cur, ModRm, S, Full ? &Ex[I] : nullptr))
        return false;
      break;
    case Slot::Eax:
      Ex[I] = Operand::reg(REG_EAX);
      break;
    case Slot::Cl:
      Ex[I] = Operand::reg(REG_CL);
      break;
    case Slot::One:
      Ex[I] = Operand::imm(1, 1);
      break;
    case Slot::ImmS8:
      Ex[I] = Operand::imm(Cur.s8(), 4);
      break;
    case Slot::Imm8:
      Ex[I] = Operand::imm(Cur.s8(), 1);
      break;
    case Slot::ImmU8:
      Ex[I] = Operand::imm(Cur.u8(), 1);
      break;
    case Slot::ImmU16:
      Ex[I] = Operand::imm(Cur.u16(), 2);
      break;
    case Slot::Imm32:
      Ex[I] = Operand::imm(Cur.s32(), 4);
      break;
    case Slot::ImmU32:
      Ex[I] = Operand::imm(int64_t(Cur.u32()), 4);
      break;
    case Slot::Rel8: {
      int8_t Rel = Cur.s8();
      Ex[I] = Operand::pc(AppPc(Pc + Cur.position() + Rel));
      break;
    }
    case Slot::Rel32: {
      int32_t Rel = Cur.s32();
      Ex[I] = Operand::pc(AppPc(Pc + Cur.position() + Rel));
      break;
    }
    }
  }
  if (Cur.failed())
    return false;

  Op = F->Ext == PlusCc ? Opcode(F->Op + Low) : F->Op;
  Length = int(Cur.position());
  if (F->Flags & FORM_SHIFT_COUNT)
    Eflags = (Ex[1].getImm() & 31) == 0 ? 0u : uint32_t(EFLAGS_WRITE_ARITH);
  else
    Eflags = opcodeInfo(Op).EflagsEffect;
  if (!Full)
    return true;
  Full->Op = Op;
  Full->Length = uint8_t(Length);
  Full->Prefixes = Prefixes;
  Full->Eflags = Eflags;
  unsigned NumSrcs = 0, NumDsts = 0;
  if (!buildCanonicalOperands(Op, Ex, F->NumOps, Full->Srcs, NumSrcs,
                              Full->Dsts, NumDsts))
    return false;
  Full->NumSrcs = uint8_t(NumSrcs);
  Full->NumDsts = uint8_t(NumDsts);
  return true;
}

} // namespace

bool rio::decodeInstr(const uint8_t *Bytes, size_t Avail, AppPc Pc,
                      DecodedInstr &Out) {
  Opcode Op;
  uint32_t Eflags;
  int Length;
  return decode(Bytes, Avail, Pc, Op, Eflags, Length, &Out);
}

int rio::decodeLength(const uint8_t *Bytes, size_t Avail) {
  Opcode Op;
  uint32_t Eflags;
  int Length;
  return decode(Bytes, Avail, /*Pc=*/0, Op, Eflags, Length, nullptr) ? Length
                                                                      : -1;
}

bool rio::decodeOpcodeAndEflags(const uint8_t *Bytes, size_t Avail, Opcode &Op,
                                uint32_t &Eflags, int &Length) {
  return decode(Bytes, Avail, /*Pc=*/0, Op, Eflags, Length, nullptr);
}
