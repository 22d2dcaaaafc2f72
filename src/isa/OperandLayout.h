//===- isa/OperandLayout.h - Canonical operand layouts --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical source/destination operand layout of every RIO-32 opcode.
///
/// Like DynamoRIO's instr_t, a fully decoded instruction carries *all* of
/// its operands, implicit ones included (e.g. `push eax` reads eax and esp
/// and writes esp and the stack slot). The client-facing macros take only
/// explicit operands and fill in the implicit ones — "The macro takes as
/// arguments only those operands that are explicit and automatically fills
/// in the implicit operands" (paper Section 3.2).
///
/// One OperandRow per opcode (two for imul: `imul r, rm` and
/// `imul r, rm, imm`) is the single source of truth for that mapping. It
/// names where each canonical source and destination comes from, how the
/// interpreter accesses them, and the width of a memory operand. Read in
/// one direction it drives buildCanonicalOperands; inverted, it drives
/// getExplicitOperands. For two-operand ALU ops the *right* assembly
/// operand is S0 and the left (read-modify-write) operand is S1 and D0.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_ISA_OPERANDLAYOUT_H
#define RIO_ISA_OPERANDLAYOUT_H

#include "isa/Opcodes.h"
#include "isa/Operand.h"

#include <initializer_list>

namespace rio {

/// Upper bounds on canonical operand counts (idiv/ret_imm have 3 sources).
constexpr unsigned MaxSrcs = 4;
constexpr unsigned MaxDsts = 2;
/// Explicit (assembly-level) operands are at most 3 (imul r, rm, imm).
constexpr unsigned MaxExplicit = 3;

/// Where a canonical operand comes from: explicit operand k, or a fixed
/// implicit operand.
enum class From : uint8_t {
  Ex0,
  Ex1,
  Ex2,
  Esp,
  EspTop,  ///< [esp], 4 bytes
  EspPush, ///< [esp-4], 4 bytes
  Eax,
  Edx,
  Ecx,
};

/// How the interpreter accesses one operand slot; the interpreter asserts
/// once per decoded instruction that each operand fits (vm/Machine.cpp).
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

/// OperandRow::Flags bits.
enum OperandRowFlag : uint8_t {
  /// Every explicit operand must be memory (savef, restf).
  OPR_MEM_ONLY = 1 << 0,
  /// The last explicit operand is an immediate: getExplicitOperands takes
  /// this row only when it is one (`imul r, imm` prints as imul r, r, imm).
  OPR_IMM_LAST = 1 << 1,
};

/// One operand layout of an opcode.
struct OperandRow {
  Opcode Op;
  uint8_t NumSrcs = 0;
  uint8_t NumDsts = 0;
  From Srcs[3]{}; ///< at most 3 (idiv, ret_imm)
  From Dsts[MaxDsts]{};
  /// Interpreter accesses of Srcs[0], Srcs[1], Dsts[0], Dsts[1].
  Use Uses[4]{};
  uint8_t MemSize; ///< access width of an explicit memory operand
  uint8_t Flags;
  // Derived: the explicit operand count, and for explicit operand k the
  // canonical slot it reads back from — the first destination it fills,
  // else the first source (ExDst[k] / ExSrc[k], -1 if neither).
  uint8_t NumExplicit = 0;
  int8_t ExDst[MaxExplicit] = {-1, -1, -1};
  int8_t ExSrc[MaxExplicit] = {-1, -1, -1};

  constexpr OperandRow(Opcode Op, std::initializer_list<From> S,
                       std::initializer_list<From> D,
                       std::initializer_list<Use> U = {}, uint8_t MemSize = 4,
                       uint8_t Flags = 0)
      : Op(Op), MemSize(MemSize), Flags(Flags) {
    for (From F : S) {
      note(F, ExSrc, NumSrcs);
      Srcs[NumSrcs++] = F;
    }
    for (From F : D) {
      note(F, ExDst, NumDsts);
      Dsts[NumDsts++] = F;
    }
    unsigned I = 0;
    for (Use X : U)
      Uses[I++] = X;
  }

private:
  constexpr void note(From F, int8_t *Back, unsigned Idx) {
    if (F > From::Ex2)
      return;
    unsigned K = unsigned(F);
    if (Back[K] < 0)
      Back[K] = int8_t(Idx);
    if (K + 1 > NumExplicit)
      NumExplicit = uint8_t(K + 1);
  }
};

/// The operand row of \p Op that the interpreter and assembler read (all
/// rows of an opcode agree on uses and memory width). \p Op must be valid.
const OperandRow &operandRow(Opcode Op);

/// Expands explicit operands into the canonical source/destination arrays,
/// synthesizing implicit operands (esp, stack slots, eax/edx, ...).
/// Returns false if \p NumExplicit does not fit any form of \p Op.
bool buildCanonicalOperands(Opcode Op, const Operand *Explicit,
                            unsigned NumExplicit, Operand *Srcs,
                            unsigned &NumSrcs, Operand *Dsts,
                            unsigned &NumDsts);

/// Projects canonical operand arrays back onto the explicit assembly
/// operands (what the encoder encodes and the disassembler prints).
/// Returns the number of explicit operands written to \p Explicit.
unsigned getExplicitOperands(Opcode Op, const Operand *Srcs, unsigned NumSrcs,
                             const Operand *Dsts, unsigned NumDsts,
                             Operand *Explicit);

} // namespace rio

#endif // RIO_ISA_OPERANDLAYOUT_H
