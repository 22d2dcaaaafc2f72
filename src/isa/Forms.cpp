//===- isa/Forms.cpp - The RIO-32 byte-form table --------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "isa/Forms.h"

#include <array>

using namespace rio;

namespace {

using enum Slot;
constexpr OpMap X = OpMap::OneByte;
constexpr OpMap X0F = OpMap::Esc0F;
constexpr OpMap F20F = OpMap::F2Esc0F;
constexpr OpMap P660F = OpMap::P66Esc0F;

/// The ALU group: op rm,r (8d+1), op r,rm (8d+3), then the immediate forms
/// in the encoder's order: 83 /d ib when the value fits a byte, the
/// accumulator form 8d+5, then 81 /d id.
#define ALU(Op, D)                                                             \
  Form{Op, X, 8 * D + 0x01, SlashR, {Rm32, R32}},                              \
      Form{Op, X, 8 * D + 0x03, SlashR, {R32, Rm32}},                          \
      Form{Op, X, 0x83, D, {Rm32, ImmS8}},                                     \
      Form{Op, X, 8 * D + 0x05, NoModRm, {Eax, Imm32}},                        \
      Form{Op, X, 0x81, D, {Rm32, Imm32}}

/// Shifts: by one (D1), by an immediate count (C1), by cl (D3, whose
/// possibly-zero count keeps the opcode's conservative eflags).
#define SHIFT(Op, D)                                                           \
  Form{Op, X, 0xD1, D, {Rm32, One}, FORM_SHIFT_COUNT},                         \
      Form{Op, X, 0xC1, D, {Rm32, ImmU8}, FORM_SHIFT_COUNT},                   \
      Form{Op, X, 0xD3, D, {Rm32, Cl}}

// Each opcode's rows are in the encoder's order of preference. A row that
// a preceding row of the same byte shadows for the decoder (xchg r,rm) is
// an encoder-only spelling of the same bytes.
constexpr Form Forms[] = {
    Form{OP_mov, X, 0x89, SlashR, {Rm32, R32}},
    Form{OP_mov, X, 0x8B, SlashR, {R32, Rm32}},
    Form{OP_mov, X, 0xB8, PlusR, {R32, Imm32}},
    Form{OP_mov, X, 0xC7, 0, {Rm32, Imm32}},
    Form{OP_mov_b, X, 0x88, SlashR, {Rm8, R8}},
    Form{OP_mov_b, X, 0x8A, SlashR, {R8, Rm8}},
    Form{OP_mov_b, X, 0xB0, PlusR, {R8, Imm8}},
    Form{OP_mov_b, X, 0xC6, 0, {Rm8, Imm8}},
    Form{OP_movzx_b, X0F, 0xB6, SlashR, {R32, Rm8}},
    Form{OP_movsx_b, X0F, 0xBE, SlashR, {R32, Rm8}},
    Form{OP_movzx_w, X0F, 0xB7, SlashR, {R32, M16}},
    Form{OP_movsx_w, X0F, 0xBF, SlashR, {R32, M16}},
    Form{OP_lea, X, 0x8D, SlashR, {R32, M}},
    Form{OP_xchg, X, 0x87, SlashR, {Rm32, R32}},
    Form{OP_xchg, X, 0x87, SlashR, {R32, Rm32}},
    Form{OP_push, X, 0x50, PlusR, {R32}},
    Form{OP_push, X, 0x6A, NoModRm, {ImmS8}},
    Form{OP_push, X, 0x68, NoModRm, {Imm32}},
    Form{OP_push, X, 0xFF, 6, {Rm32}},
    Form{OP_pop, X, 0x58, PlusR, {R32}},
    Form{OP_pop, X, 0x8F, 0, {Rm32}},

    ALU(OP_add, 0),
    ALU(OP_or, 1),
    ALU(OP_adc, 2),
    ALU(OP_sbb, 3),
    ALU(OP_and, 4),
    ALU(OP_sub, 5),
    ALU(OP_xor, 6),
    ALU(OP_cmp, 7),
    Form{OP_test, X, 0x85, SlashR, {Rm32, R32}},
    Form{OP_test, X, 0xA9, NoModRm, {Eax, Imm32}},
    Form{OP_test, X, 0xF7, 0, {Rm32, Imm32}},
    Form{OP_inc, X, 0x40, PlusR, {R32}},
    Form{OP_inc, X, 0xFF, 0, {Rm32}},
    Form{OP_dec, X, 0x48, PlusR, {R32}},
    Form{OP_dec, X, 0xFF, 1, {Rm32}},
    Form{OP_not, X, 0xF7, 2, {Rm32}},
    Form{OP_neg, X, 0xF7, 3, {Rm32}},
    Form{OP_mul, X, 0xF7, 4, {Rm32}},
    Form{OP_idiv, X, 0xF7, 7, {Rm32}},
    Form{OP_imul, X0F, 0xAF, SlashR, {R32, Rm32}},
    Form{OP_imul, X, 0x6B, SlashR, {R32, Rm32, ImmS8}},
    Form{OP_imul, X, 0x69, SlashR, {R32, Rm32, Imm32}},
    Form{OP_cdq, X, 0x99, NoModRm, {}},
    SHIFT(OP_shl, 4),
    SHIFT(OP_shr, 5),
    SHIFT(OP_sar, 7),

    Form{OP_jmp, X, 0xEB, NoModRm, {Rel8}, FORM_SHORT_BRANCH},
    Form{OP_jmp, X, 0xE9, NoModRm, {Rel32}},
    Form{OP_jmp_ind, X, 0xFF, 4, {Rm32}},
    Form{OP_call, X, 0xE8, NoModRm, {Rel32}},
    Form{OP_call_ind, X, 0xFF, 2, {Rm32}},
    Form{OP_ret, X, 0xC3, NoModRm, {}},
    Form{OP_ret_imm, X, 0xC2, NoModRm, {ImmU16}},
    Form{OP_jo, X, 0x70, PlusCc, {Rel8}, FORM_SHORT_BRANCH},
    Form{OP_jo, X0F, 0x80, PlusCc, {Rel32}},
    // jecxz has only a rel8 form: an out-of-range target fails to encode
    // (callers keep jecxz targets nearby, as DynamoRIO's mangling does).
    Form{OP_jecxz, X, 0xE3, NoModRm, {Rel8}},

    Form{OP_int, X, 0xCD, NoModRm, {ImmU8}},
    Form{OP_hlt, X, 0xF4, NoModRm, {}},
    Form{OP_nop, X, 0x90, NoModRm, {}},

    Form{OP_movsd, F20F, 0x10, SlashR, {Xmm, Xm64}},
    Form{OP_movsd, F20F, 0x11, SlashR, {Xm64, Xmm}},
    Form{OP_addsd, F20F, 0x58, SlashR, {Xmm, Xm64}},
    Form{OP_mulsd, F20F, 0x59, SlashR, {Xmm, Xm64}},
    Form{OP_subsd, F20F, 0x5C, SlashR, {Xmm, Xm64}},
    Form{OP_divsd, F20F, 0x5E, SlashR, {Xmm, Xm64}},
    Form{OP_ucomisd, P660F, 0x2E, SlashR, {Xmm, Xm64}},
    Form{OP_cvtsi2sd, F20F, 0x2A, SlashR, {Xmm, Rm32}},
    Form{OP_cvttsd2si, F20F, 0x2C, SlashR, {R32, Xm64}},

    Form{OP_clientcall, X0F, 0x04, NoModRm, {ImmU32}},
    Form{OP_savef, X0F, 0x05, 0, {M}},
    Form{OP_restf, X0F, 0x06, 0, {M}},
};

#undef ALU
#undef SHIFT

/// The opcode bytes a row decodes from, and the opcodes it encodes.
constexpr unsigned bytesCovered(const Form &F) {
  return F.Ext == PlusR ? 8 : F.Ext == PlusCc ? 16 : 1;
}
constexpr unsigned opcodesCovered(const Form &F) {
  return F.Ext == PlusCc ? 16 : 1;
}

constexpr unsigned NumByteKeys = 4 * 256;
constexpr unsigned byteKey(OpMap Map, unsigned Byte) {
  return unsigned(Map) * 256 + Byte;
}
constexpr unsigned byteKeyOf(const Form &F) { return byteKey(F.Map, F.Byte); }
constexpr unsigned opcodeKeyOf(const Form &F) { return unsigned(F.Op); }

/// Rows bucketed by key (a row covers Width(F) keys from Key(F)), each
/// bucket in table order: a counting sort run at compile time.
template <unsigned NumKeys, unsigned (*Key)(const Form &),
          unsigned (*Width)(const Form &)>
struct Index {
  static constexpr size_t NumEntries = [] {
    size_t N = 0;
    for (const Form &F : Forms)
      N += Width(F);
    return N;
  }();

  std::array<uint16_t, NumKeys + 1> Start{};
  std::array<const Form *, NumEntries> Rows{};

  constexpr Index() {
    for (const Form &F : Forms)
      for (unsigned K = 0; K != Width(F); ++K)
        ++Start[Key(F) + K + 1];
    for (unsigned K = 0; K != NumKeys; ++K)
      Start[K + 1] += Start[K];
    std::array<uint16_t, NumKeys> Fill{};
    for (unsigned K = 0; K != NumKeys; ++K)
      Fill[K] = Start[K];
    for (const Form &F : Forms)
      for (unsigned K = 0; K != Width(F); ++K)
        Rows[Fill[Key(F) + K]++] = &F;
  }

  std::span<const Form *const> operator[](unsigned K) const {
    return {Rows.data() + Start[K], Rows.data() + Start[K + 1]};
  }
};

constexpr Index<NumByteKeys, byteKeyOf, bytesCovered> ByByte;
constexpr Index<NUM_OPCODES, opcodeKeyOf, opcodesCovered> ByOpcode;

/// The decoder reads one ModRM decision per opcode byte.
constexpr bool modRmAgreesPerByte() {
  for (unsigned K = 0; K != NumByteKeys; ++K)
    for (unsigned I = ByByte.Start[K]; I != ByByte.Start[K + 1]; ++I)
      if (ByByte.Rows[I]->hasModRm() !=
          ByByte.Rows[ByByte.Start[K]]->hasModRm())
        return false;
  return true;
}
static_assert(modRmAgreesPerByte(),
              "rows sharing an opcode byte disagree on ModRM");

/// Every row places its operands where the codecs look for them: a ModRM
/// row has an rm operand, /r and +r rows a register operand, and an
/// immediate or branch target is the last operand (its bytes come last).
constexpr bool operandsArePlaceable() {
  for (const Form &F : Forms) {
    if (F.hasModRm() != (F.RmIdx >= 0))
      return false;
    if ((F.Ext == SlashR || F.Ext == PlusR) != (F.RegIdx >= 0))
      return false;
    for (unsigned I = 0; I + 1 < F.NumOps; ++I)
      if (F.Ops[I] >= Slot::ImmS8)
        return false;
  }
  return true;
}
static_assert(operandsArePlaceable(), "a row's operands do not fit its bytes");

} // namespace

std::span<const Form *const> rio::formsForByte(OpMap Map, uint8_t Byte) {
  return ByByte[byteKey(Map, Byte)];
}

std::span<const Form *const> rio::formsForOpcode(Opcode Op) {
  return ByOpcode[unsigned(Op)];
}
