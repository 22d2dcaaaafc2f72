//===- asm/Assembler.h - Two-pass RIO-32 assembler -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small two-pass textual assembler for RIO-32, used to author the
/// SPEC2000-like workloads and the tests. Intel-flavoured syntax:
///
/// \code
///   .org   0x1000          ; load address (default 0x1000)
///   .entry main            ; entry symbol
///   counter: .word 0       ; 32-bit data
///   table:   .word h1 h2   ; words may hold label addresses
///   buf:     .space 256
///   vec:     .f64 1.0 2.5
///   main:
///     mov   eax, 10
///     mov   ebx, [counter]
///     lea   esi, [table+eax*4]
///     movb  cl, [buf+edx]
///     movsd xmm0, [vec+eax*8]
///   loop:
///     dec   eax
///     jnz   loop
///     call  func           ; direct call
///     call  [table+eax*4]  ; indirect call
///     mov   eax, 1         ; SYS_exit
///     int   0x80
/// \endcode
///
/// Memory operand sizes come from the mnemonic's operand row in
/// isa/OperandLayout.cpp (mov=4, movb=1, movzxw=2, movsd=8), so no
/// "dword ptr" annotations are needed. Numbers, data values, displacements
/// and the image size are range-checked: a value that does not fit is an
/// error, never truncated.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_ASM_ASSEMBLER_H
#define RIO_ASM_ASSEMBLER_H

#include "isa/Operand.h"

#include <map>
#include <string>
#include <vector>

namespace rio {

/// An assembled program image.
struct Program {
  AppPc LoadAddr = 0x1000;
  AppPc Entry = 0;
  std::vector<uint8_t> Bytes;
  std::map<std::string, AppPc> Symbols;

  AppPc endAddr() const { return LoadAddr + AppPc(Bytes.size()); }

  /// Returns the address of \p Symbol, or 0 if undefined.
  AppPc symbol(const std::string &Name) const {
    auto It = Symbols.find(Name);
    return It == Symbols.end() ? 0 : It->second;
  }
};

/// Assembles \p Source. On failure returns false and sets \p Error to a
/// "line N: message" diagnostic.
bool assemble(const std::string &Source, Program &Out, std::string &Error);

class Machine;

/// Loads \p Prog into \p M: copies the image, points the pc at the entry,
/// and initializes the stack pointer just below the top of the application
/// region.
bool loadProgram(Machine &M, const Program &Prog);

} // namespace rio

#endif // RIO_ASM_ASSEMBLER_H
