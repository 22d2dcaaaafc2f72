//===- isa/OperandLayout.cpp - Canonical operand layouts ------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "isa/OperandLayout.h"

#include "support/Compiler.h"

#include <array>
#include <iterator>
#include <span>

using namespace rio;

namespace {

using enum From;
using enum Use;

// One row per opcode, in Opcode order: sources, destinations, the
// interpreter's uses of S0 S1 D0 D1, memory-operand width, flags. imul's
// immediate row comes first: getExplicitOperands takes the first row whose
// flags hold.
constexpr OperandRow Rows[] = {
    {OP_mov, {Ex1}, {Ex0}, {Read32, None, Write32}},
    {OP_mov_b, {Ex1}, {Ex0}, {Read8, None, Write8}, 1},
    {OP_movzx_b, {Ex1}, {Ex0}, {Read8, None, Write32}, 1},
    {OP_movzx_w, {Ex1}, {Ex0}, {Addr, None, Write32}, 2},
    {OP_movsx_b, {Ex1}, {Ex0}, {Read8, None, Write32}, 1},
    {OP_movsx_w, {Ex1}, {Ex0}, {Addr, None, Write32}, 2},
    {OP_lea, {Ex1}, {Ex0}, {Addr, None, Write32}},
    {OP_xchg, {Ex0, Ex1}, {Ex0, Ex1}, {Read32, Read32, Write32, Write32}},
    {OP_push, {Ex0, Esp}, {Esp, EspPush}, {Read32}},
    {OP_pop, {Esp, EspTop}, {Ex0, Esp}, {None, None, Write32}},

    {OP_add, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_or, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_adc, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_sbb, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_and, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_sub, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_xor, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_cmp, {Ex1, Ex0}, {}, {Read32, Read32}},
    {OP_inc, {Ex0}, {Ex0}, {Read32, None, Write32}},
    {OP_dec, {Ex0}, {Ex0}, {Read32, None, Write32}},
    {OP_neg, {Ex0}, {Ex0}, {Read32, None, Write32}},
    {OP_not, {Ex0}, {Ex0}, {Read32, None, Write32}},
    {OP_test, {Ex1, Ex0}, {}, {Read32, Read32}},
    {OP_imul, {Ex2, Ex1}, {Ex0}, {Read32, Read32, Write32}, 4, OPR_IMM_LAST},
    {OP_imul, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_mul, {Ex0, Eax}, {Eax, Edx}, {Read32}},
    {OP_idiv, {Ex0, Eax, Edx}, {Eax, Edx}, {Read32}},
    {OP_cdq, {Eax}, {Edx}},
    {OP_shl, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_shr, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},
    {OP_sar, {Ex1, Ex0}, {Ex0}, {Read32, Read32, Write32}},

    {OP_jmp, {Ex0}, {}, {Target}},
    {OP_jmp_ind, {Ex0}, {}, {Read32}},
    {OP_call, {Ex0, Esp}, {Esp, EspPush}, {Target}},
    {OP_call_ind, {Ex0, Esp}, {Esp, EspPush}, {Read32}},
    {OP_ret, {Esp, EspTop}, {Esp}},
    {OP_ret_imm, {Ex0, Esp, EspTop}, {Esp}, {Imm}},
    {OP_jo, {Ex0}, {}, {Target}},
    {OP_jno, {Ex0}, {}, {Target}},
    {OP_jb, {Ex0}, {}, {Target}},
    {OP_jnb, {Ex0}, {}, {Target}},
    {OP_jz, {Ex0}, {}, {Target}},
    {OP_jnz, {Ex0}, {}, {Target}},
    {OP_jbe, {Ex0}, {}, {Target}},
    {OP_jnbe, {Ex0}, {}, {Target}},
    {OP_js, {Ex0}, {}, {Target}},
    {OP_jns, {Ex0}, {}, {Target}},
    {OP_jp, {Ex0}, {}, {Target}},
    {OP_jnp, {Ex0}, {}, {Target}},
    {OP_jl, {Ex0}, {}, {Target}},
    {OP_jnl, {Ex0}, {}, {Target}},
    {OP_jle, {Ex0}, {}, {Target}},
    {OP_jnle, {Ex0}, {}, {Target}},
    {OP_jecxz, {Ex0, Ecx}, {}, {Target}},

    {OP_int, {Ex0}, {}},
    {OP_hlt, {}, {}},
    {OP_nop, {}, {}},

    {OP_movsd, {Ex1}, {Ex0}, {ReadF64, None, WriteF64}, 8},
    {OP_addsd, {Ex1, Ex0}, {Ex0}, {ReadF64, ReadF64, WriteF64}, 8},
    {OP_subsd, {Ex1, Ex0}, {Ex0}, {ReadF64, ReadF64, WriteF64}, 8},
    {OP_mulsd, {Ex1, Ex0}, {Ex0}, {ReadF64, ReadF64, WriteF64}, 8},
    {OP_divsd, {Ex1, Ex0}, {Ex0}, {ReadF64, ReadF64, WriteF64}, 8},
    {OP_ucomisd, {Ex1, Ex0}, {}, {ReadF64, ReadF64}, 8},
    {OP_cvtsi2sd, {Ex1}, {Ex0}, {Read32, None, WriteF64}},
    {OP_cvttsd2si, {Ex1}, {Ex0}, {ReadF64, None, Write32}, 8},

    {OP_clientcall, {Ex0}, {}, {Imm}},
    {OP_savef, {}, {Ex0}, {None, None, Addr}, 4, OPR_MEM_ONLY},
    {OP_restf, {Ex0}, {}, {Addr}, 4, OPR_MEM_ONLY},
    {OP_label, {}, {}},
};

/// First[Op] .. First[Op + 1] are the rows of Op.
constexpr auto First = [] {
  std::array<uint8_t, NUM_OPCODES + 1> F{};
  unsigned I = 0;
  for (unsigned Op = 0; Op <= NUM_OPCODES; ++Op) {
    while (I != std::size(Rows) && Rows[I].Op < Op)
      ++I;
    F[Op] = uint8_t(I);
  }
  return F;
}();

std::span<const OperandRow> rowsOf(Opcode Op) {
  if (Op >= NUM_OPCODES)
    return {};
  return {Rows + First[Op], Rows + First[Op + 1]};
}

/// Rows are sorted by opcode and cover every valid one; every explicit
/// operand fills a slot; rows of one opcode differ in explicit count, agree
/// on uses and width, and a flagged row precedes the unflagged one, so
/// getExplicitOperands always finds a row.
constexpr bool rowsAreWellFormed() {
  for (unsigned I = 0; I != std::size(Rows); ++I) {
    const OperandRow &Row = Rows[I];
    if (I ? Row.Op < Rows[I - 1].Op : Row.Op == OP_INVALID)
      return false;
    for (unsigned K = 0; K != Row.NumExplicit; ++K)
      if (Row.ExDst[K] < 0 && Row.ExSrc[K] < 0)
        return false;
    if (I && Row.Op == Rows[I - 1].Op) {
      const OperandRow &Prev = Rows[I - 1];
      if (Row.NumExplicit == Prev.NumExplicit || Row.MemSize != Prev.MemSize ||
          !(Prev.Flags & OPR_IMM_LAST))
        return false;
      for (unsigned U = 0; U != std::size(Row.Uses); ++U)
        if (Row.Uses[U] != Prev.Uses[U])
          return false;
    }
  }
  for (unsigned Op = OP_INVALID + 1; Op != NUM_OPCODES; ++Op)
    if (First[Op] == First[Op + 1] ||
        (Rows[First[Op + 1] - 1].Flags & OPR_IMM_LAST))
      return false;
  return true;
}
static_assert(rowsAreWellFormed(), "malformed operand row table");

Operand operandFrom(From F, const Operand *Ex) {
  switch (F) {
  case Esp:
    return Operand::reg(REG_ESP);
  case EspTop:
    return Operand::mem(REG_ESP, 0, /*SizeBytes=*/4);
  case EspPush:
    return Operand::mem(REG_ESP, -4, /*SizeBytes=*/4);
  case Eax:
    return Operand::reg(REG_EAX);
  case Edx:
    return Operand::reg(REG_EDX);
  case Ecx:
    return Operand::reg(REG_ECX);
  default:
    return Ex[unsigned(F)];
  }
}

} // namespace

const OperandRow &rio::operandRow(Opcode Op) {
  std::span<const OperandRow> Rs = rowsOf(Op);
  assert(!Rs.empty() && "operandRow on invalid opcode");
  return Rs.back();
}

bool rio::buildCanonicalOperands(Opcode Op, const Operand *Ex, unsigned NumEx,
                                 Operand *Srcs, unsigned &NumSrcs,
                                 Operand *Dsts, unsigned &NumDsts) {
  NumSrcs = 0;
  NumDsts = 0;
  for (const OperandRow &Row : rowsOf(Op)) {
    if (Row.NumExplicit != NumEx)
      continue;
    if (Row.Flags & OPR_MEM_ONLY)
      for (unsigned K = 0; K != NumEx; ++K)
        if (!Ex[K].isMem())
          return false;
    for (unsigned I = 0; I != Row.NumSrcs; ++I)
      Srcs[I] = operandFrom(Row.Srcs[I], Ex);
    for (unsigned I = 0; I != Row.NumDsts; ++I)
      Dsts[I] = operandFrom(Row.Dsts[I], Ex);
    NumSrcs = Row.NumSrcs;
    NumDsts = Row.NumDsts;
    return true;
  }
  return false;
}

unsigned rio::getExplicitOperands(Opcode Op, const Operand *Srcs,
                                  unsigned NumSrcs, const Operand *Dsts,
                                  unsigned NumDsts, Operand *Ex) {
  (void)NumSrcs;
  (void)NumDsts;
  for (const OperandRow &Row : rowsOf(Op)) {
    auto At = [&](unsigned K) -> const Operand & {
      if (Row.ExDst[K] >= 0) {
        assert(unsigned(Row.ExDst[K]) < NumDsts && "malformed instruction");
        return Dsts[Row.ExDst[K]];
      }
      assert(unsigned(Row.ExSrc[K]) < NumSrcs && "malformed instruction");
      return Srcs[Row.ExSrc[K]];
    };
    if ((Row.Flags & OPR_IMM_LAST) && !At(Row.NumExplicit - 1).isImm())
      continue;
    for (unsigned K = 0; K != Row.NumExplicit; ++K)
      Ex[K] = At(K);
    return Row.NumExplicit;
  }
  RIO_UNREACHABLE("getExplicitOperands on invalid opcode");
}
