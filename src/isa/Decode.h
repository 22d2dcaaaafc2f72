//===- isa/Decode.h - RIO-32 instruction decoder ---------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-strategy decoder behind the paper's adaptive levels of detail
/// (Section 3.1):
///
///   decodeLength          - boundary scan only (Levels 0 and 1); "even this
///                            is non-trivial for IA-32"
///   decodeOpcodeAndEflags - opcode + eflags effects (Level 2)
///   decodeInstr           - full decode with all operands (Levels 3 and 4)
///
/// All three read the one form table (isa/Forms.h), so they accept exactly
/// the same bytes; the cheaper ones only skip building operands.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_ISA_DECODE_H
#define RIO_ISA_DECODE_H

#include "isa/Opcodes.h"
#include "isa/Operand.h"
#include "isa/OperandLayout.h"

#include <cstddef>

namespace rio {

/// Optional instruction prefixes that survive decode/encode round trips.
/// (The mandatory F2/66 prefixes of the scalar-double opcodes are part of
/// the opcode encoding, not of this set.)
enum Prefix : uint8_t {
  PREFIX_LOCK = 1 << 0, ///< 0xF0; semantic no-op in the uniprocessor vm
  PREFIX_HINT = 1 << 1, ///< 0x3E; branch-hint style no-op
};

/// No RIO-32 instruction is longer than this many bytes.
constexpr unsigned MaxInstrLength = 16;

/// A fully decoded instruction: opcode, prefixes, refined eflags effects,
/// and the canonical source/destination operand sets (implicit operands
/// included; see isa/OperandLayout.h).
struct DecodedInstr {
  Opcode Op = OP_INVALID;
  uint8_t Length = 0;
  uint8_t Prefixes = 0;
  uint32_t Eflags = 0;
  uint8_t NumSrcs = 0;
  uint8_t NumDsts = 0;
  Operand Srcs[MaxSrcs];
  Operand Dsts[MaxDsts];
};

/// Full decode of the instruction at \p Bytes (at most \p Avail readable
/// bytes), which lives at application address \p Pc (needed to materialize
/// pc-relative branch targets as absolute addresses).
/// \returns true on success; false on an invalid or truncated instruction.
bool decodeInstr(const uint8_t *Bytes, size_t Avail, AppPc Pc,
                 DecodedInstr &Out);

/// Level 0/1 decode: returns the instruction length in bytes, or -1 if the
/// bytes do not form a valid instruction.
int decodeLength(const uint8_t *Bytes, size_t Avail);

/// Level 2 decode: opcode and eflags effect only (plus length).
/// \returns true on success.
bool decodeOpcodeAndEflags(const uint8_t *Bytes, size_t Avail, Opcode &Op,
                           uint32_t &Eflags, int &Length);

} // namespace rio

#endif // RIO_ISA_DECODE_H
