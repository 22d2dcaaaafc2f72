//===- isa/Forms.h - The RIO-32 byte-form table ----------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every RIO-32 byte form, listed once. A row names the opcode, where its
/// opcode byte lives (one-byte map, or behind 0F with an optional mandatory
/// F2/66 prefix), how the byte is completed (/digit, /r, +r, +cc) and the
/// pattern of its explicit operands in assembly order. As in DynamoRIO,
/// one table serves both directions:
///
///   - the decoder (isa/Decode.cpp) looks up the rows for an opcode byte
///     and takes the first whose /digit matches the ModRM byte; its three
///     strategies (length, opcode+eflags, full) read the same rows, so they
///     accept exactly the same bytes;
///   - the encoder (isa/Encode.cpp) walks the rows of an opcode in table
///     order and emits the first whose pattern accepts the operands, so the
///     row order is the encoder's preference (shortest form first).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_ISA_FORMS_H
#define RIO_ISA_FORMS_H

#include "isa/Opcodes.h"
#include "isa/OperandLayout.h"

#include <initializer_list>
#include <span>

namespace rio {

/// The opcode map an opcode byte belongs to.
enum class OpMap : uint8_t {
  OneByte,  ///< xx
  Esc0F,    ///< 0F xx
  F2Esc0F,  ///< F2 0F xx
  P66Esc0F, ///< 66 0F xx
};

/// One explicit operand position of a form.
enum class Slot : uint8_t {
  None,
  // Register in ModRM.reg, or in the opcode byte's low bits for +r rows.
  R32,
  R8,
  Xmm,
  // ModRM.rm: a register of the class or memory of the width.
  Rm32,
  Rm8,
  Xm64,
  // ModRM.rm, memory only: 16-bit memory, or an address whose width the
  // form ignores (lea, savef, restf; decoded as 4 bytes).
  M16,
  M,
  // Implicit: no bytes.
  Eax,
  Cl,
  One, ///< the immediate 1 (shift by one)
  // Immediates. ImmS8 is a sign-extended byte standing for a 32-bit value;
  // the encoder picks it only when the value fits.
  ImmS8,
  Imm8,   ///< byte-sized value, sign-extended
  ImmU8,  ///< byte-sized value, zero-extended
  ImmU16, ///< 16-bit value, zero-extended
  Imm32,  ///< 32-bit value, sign-extended
  ImmU32, ///< 32-bit value, zero-extended
  // pc-relative branch targets.
  Rel8,
  Rel32,
};

constexpr unsigned NumSlots = unsigned(Slot::Rel32) + 1;
static_assert(NumSlots * MaxExplicit <= 64, "slot masks must fit 64 bits");

/// The bit for slot \p S at operand position \p Pos in a 64-bit set of
/// per-position slot masks (see Form::Pattern).
constexpr uint64_t slotBit(Slot S, unsigned Pos) {
  return uint64_t(1) << (Pos * NumSlots + unsigned(S));
}

/// Slots placed in ModRM.reg (or the opcode byte of +r rows).
constexpr bool isRegSlot(Slot S) { return S >= Slot::R32 && S <= Slot::Xmm; }
/// Slots placed in ModRM.rm (with SIB and displacement).
constexpr bool isRmSlot(Slot S) { return S >= Slot::Rm32 && S <= Slot::M; }

/// Form::Ext values other than a /digit (0-7).
constexpr int8_t SlashR = -1; ///< ModRM whose reg field is the R operand
constexpr int8_t NoModRm = -2;
constexpr int8_t PlusR = -3;  ///< opcode byte + register encoding
constexpr int8_t PlusCc = -4; ///< opcode byte + condition code

/// Form::Flags bits.
enum FormFlag : uint8_t {
  /// A short branch: the encoder uses it only under AllowShortBranches.
  FORM_SHORT_BRANCH = 1 << 0,
  /// A shift by an immediate count: a zero count writes no flags, any other
  /// count writes them all (refines the opcode's conservative read+write).
  FORM_SHIFT_COUNT = 1 << 1,
};

/// One RIO-32 byte form.
struct Form {
  Opcode Op;    ///< for +cc rows, the opcode of condition code 0
  OpMap Map;
  uint8_t Byte; ///< opcode byte; first of the range for +r/+cc
  int8_t Ext;   ///< /digit (0-7), SlashR, NoModRm, PlusR or PlusCc
  uint8_t NumOps;
  Slot Ops[MaxExplicit];
  uint8_t Flags;
  // Derived from Ops: the positions of the register and rm operands (-1 if
  // none). Immediates and branch targets are always the last operand.
  int8_t RegIdx = -1;
  int8_t RmIdx = -1;
  /// slotBit of each position's slot (None past NumOps): the operands fit
  /// iff every one of these bits is among theirs.
  uint64_t Pattern = 0;

  constexpr Form(Opcode Op, OpMap Map, uint8_t Byte, int8_t Ext,
                 std::initializer_list<Slot> Slots, uint8_t Flags = 0)
      : Op(Op), Map(Map), Byte(Byte), Ext(Ext), NumOps(uint8_t(Slots.size())),
        Ops{}, Flags(Flags) {
    int8_t I = 0;
    for (Slot S : Slots) {
      if (isRegSlot(S))
        RegIdx = I;
      else if (isRmSlot(S))
        RmIdx = I;
      Ops[I++] = S;
    }
    for (unsigned Pos = 0; Pos != MaxExplicit; ++Pos)
      Pattern |= slotBit(Ops[Pos], Pos);
  }

  constexpr bool hasModRm() const { return Ext >= SlashR; }
};

/// The rows for opcode byte \p Byte of \p Map, in table order (empty if the
/// byte is not an opcode). All of them agree on whether a ModRM follows.
std::span<const Form *const> formsForByte(OpMap Map, uint8_t Byte);

/// The rows that encode \p Op, in the encoder's order of preference.
std::span<const Form *const> formsForOpcode(Opcode Op);

} // namespace rio

#endif // RIO_ISA_FORMS_H
