//===- tests/isa_test.cpp - ISA decode/encode tests -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "isa/Decode.h"
#include "isa/Eflags.h"
#include "isa/Encode.h"
#include "isa/OperandLayout.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

using namespace rio;

namespace {

/// Encodes the given explicit-operand form and decodes it back, expecting a
/// structurally identical instruction.
void roundTrip(Opcode Op, std::initializer_list<Operand> Explicit,
               AppPc Pc = 0x1000) {
  Operand Ex[MaxExplicit];
  unsigned NumEx = 0;
  for (const Operand &O : Explicit)
    Ex[NumEx++] = O;

  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  ASSERT_TRUE(
      buildCanonicalOperands(Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts))
      << opcodeName(Op) << " with " << NumEx << " operands";

  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, Pc, Buf);
  ASSERT_GT(Len, 0) << "encode failed for " << opcodeName(Op);

  DecodedInstr DI;
  ASSERT_TRUE(decodeInstr(Buf, size_t(Len), Pc, DI))
      << "decode failed for " << opcodeName(Op);
  EXPECT_EQ(DI.Op, Op);
  EXPECT_EQ(DI.Length, Len);
  ASSERT_EQ(DI.NumSrcs, NumSrcs);
  ASSERT_EQ(DI.NumDsts, NumDsts);
  for (unsigned I = 0; I != NumSrcs; ++I)
    EXPECT_TRUE(DI.Srcs[I] == Srcs[I])
        << opcodeName(Op) << " src " << I << " mismatch";
  for (unsigned I = 0; I != NumDsts; ++I)
    EXPECT_TRUE(DI.Dsts[I] == Dsts[I])
        << opcodeName(Op) << " dst " << I << " mismatch";
}

Operand R(Register Reg) { return Operand::reg(Reg); }
Operand I8(int64_t V) { return Operand::imm(V, 4); }
Operand M(Register Base, int32_t Disp, uint8_t Size = 4,
          Register Index = REG_NULL, uint8_t Scale = 1) {
  return Operand::mem(Base, Disp, Size, Index, Scale);
}

TEST(IsaEncode, MovForms) {
  roundTrip(OP_mov, {R(REG_EAX), R(REG_EBX)});
  roundTrip(OP_mov, {R(REG_EDI), I8(0x12345678)});
  roundTrip(OP_mov, {R(REG_ECX), M(REG_ESI, 0xC)});
  roundTrip(OP_mov, {M(REG_EBP, -8), R(REG_EDX)});
  roundTrip(OP_mov, {M(REG_ESP, 0), R(REG_EAX)});
  roundTrip(OP_mov, {M(REG_NULL, 0x2000), R(REG_EAX)});
  roundTrip(OP_mov, {M(REG_EAX, 0, 4, REG_ECX, 4), R(REG_EDX)});
  roundTrip(OP_mov, {M(REG_NULL, 0x3000, 4, REG_EDI, 8), R(REG_EDX)});
  roundTrip(OP_mov, {M(REG_EBX, 0x12345, 4, REG_EAX, 2), R(REG_ESI)});
  roundTrip(OP_mov, {M(REG_EBX, 0x40), I8(-1)});
}

TEST(IsaEncode, ByteAndExtendedMoves) {
  roundTrip(OP_mov_b, {R(REG_AL), R(REG_BH)});
  roundTrip(OP_mov_b, {R(REG_CL), M(REG_ESI, 5, 1)});
  roundTrip(OP_mov_b, {M(REG_EDI, -3, 1), R(REG_DL)});
  roundTrip(OP_mov_b, {R(REG_AH), Operand::imm(0x7F, 1)});
  roundTrip(OP_mov_b, {M(REG_EAX, 0, 1), Operand::imm(-2, 1)});
  roundTrip(OP_movzx_b, {R(REG_EAX), R(REG_CL)});
  roundTrip(OP_movzx_b, {R(REG_EBX), M(REG_EDX, 7, 1)});
  roundTrip(OP_movzx_w, {R(REG_ECX), M(REG_EBP, 2, 2)});
  roundTrip(OP_movsx_b, {R(REG_ESI), R(REG_BL)});
  roundTrip(OP_movsx_w, {R(REG_EDI), M(REG_ESP, 4, 2)});
}

TEST(IsaEncode, AluForms) {
  for (Opcode Op : {OP_add, OP_or, OP_adc, OP_sbb, OP_and, OP_sub, OP_xor,
                    OP_cmp}) {
    roundTrip(Op, {R(REG_EAX), R(REG_ECX)});
    roundTrip(Op, {R(REG_EBX), M(REG_ESI, 0x1C)});
    roundTrip(Op, {M(REG_EDI, -0x20), R(REG_EDX)});
    roundTrip(Op, {R(REG_EDX), I8(5)});        // imm8 form
    roundTrip(Op, {R(REG_EAX), I8(0x1234)});   // eax,imm32 short form
    roundTrip(Op, {R(REG_EBP), I8(0x12345)});  // generic imm32 form
    roundTrip(Op, {M(REG_EAX, 4), I8(1000)});
  }
}

TEST(IsaEncode, TestIncDecNegNot) {
  roundTrip(OP_test, {R(REG_EAX), R(REG_EBX)});
  roundTrip(OP_test, {R(REG_EAX), I8(0xFF)});
  roundTrip(OP_test, {R(REG_ESI), I8(0x10)});
  roundTrip(OP_test, {M(REG_ESP, 8), R(REG_ECX)});
  for (Opcode Op : {OP_inc, OP_dec}) {
    roundTrip(Op, {R(REG_EAX)});
    roundTrip(Op, {R(REG_EDI)});
    roundTrip(Op, {M(REG_EBX, 0x10)});
  }
  roundTrip(OP_neg, {R(REG_ECX)});
  roundTrip(OP_neg, {M(REG_EBP, -4)});
  roundTrip(OP_not, {R(REG_EDX)});
}

TEST(IsaEncode, MulDivShift) {
  roundTrip(OP_imul, {R(REG_EAX), R(REG_EBX)});
  roundTrip(OP_imul, {R(REG_ECX), M(REG_ESI, 0)});
  roundTrip(OP_imul, {R(REG_EDX), R(REG_EDX), I8(10)});
  roundTrip(OP_imul, {R(REG_EDI), M(REG_EBP, 8), I8(100000)});
  roundTrip(OP_mul, {R(REG_ECX)});
  roundTrip(OP_idiv, {R(REG_EBX)});
  roundTrip(OP_idiv, {M(REG_ESI, 4)});
  roundTrip(OP_cdq, {});
  for (Opcode Op : {OP_shl, OP_shr, OP_sar}) {
    roundTrip(Op, {R(REG_EAX), Operand::imm(1, 1)});
    roundTrip(Op, {R(REG_ECX), Operand::imm(7, 1)});
    roundTrip(Op, {M(REG_EDI, 2), Operand::imm(3, 1)});
    roundTrip(Op, {R(REG_EDX), R(REG_CL)});
  }
}

TEST(IsaEncode, StackOps) {
  roundTrip(OP_push, {R(REG_EBP)});
  roundTrip(OP_push, {I8(42)});
  roundTrip(OP_push, {I8(0x12345678)});
  roundTrip(OP_push, {M(REG_EAX, 0)});
  roundTrip(OP_pop, {R(REG_ESI)});
  roundTrip(OP_pop, {M(REG_EBX, 4)});
  roundTrip(OP_xchg, {R(REG_EAX), R(REG_EDX)});
  roundTrip(OP_xchg, {M(REG_ESP, 0), R(REG_ECX)});
  roundTrip(OP_lea, {R(REG_EAX), M(REG_EBX, 8, 4, REG_ECX, 2)});
}

TEST(IsaEncode, ControlFlow) {
  roundTrip(OP_jmp, {Operand::pc(0x1100)});
  roundTrip(OP_jmp, {Operand::pc(0x9000)});
  roundTrip(OP_call, {Operand::pc(0x2000)});
  roundTrip(OP_jmp_ind, {R(REG_EAX)});
  roundTrip(OP_jmp_ind, {M(REG_EBX, 0, 4, REG_ECX, 4)});
  roundTrip(OP_call_ind, {R(REG_EDX)});
  roundTrip(OP_call_ind, {M(REG_NULL, 0x5000)});
  roundTrip(OP_ret, {});
  roundTrip(OP_ret_imm, {Operand::imm(8, 2)});
  for (unsigned Cc = 0; Cc != 16; ++Cc)
    roundTrip(condBranchForCode(Cc), {Operand::pc(0x1003)});
  for (unsigned Cc = 0; Cc != 16; ++Cc)
    roundTrip(condBranchForCode(Cc), {Operand::pc(0x8000)});
}

TEST(IsaEncode, SystemAndFp) {
  roundTrip(OP_int, {Operand::imm(0x80, 1)});
  roundTrip(OP_hlt, {});
  roundTrip(OP_nop, {});
  roundTrip(OP_clientcall, {I8(77)});
  roundTrip(OP_savef, {M(REG_NULL, 0x7000)});
  roundTrip(OP_restf, {M(REG_NULL, 0x7000)});

  roundTrip(OP_movsd, {R(REG_XMM0), R(REG_XMM3)});
  roundTrip(OP_movsd, {R(REG_XMM1), M(REG_ESI, 0, 8)});
  roundTrip(OP_movsd, {M(REG_EDI, 8, 8), R(REG_XMM2)});
  for (Opcode Op : {OP_addsd, OP_subsd, OP_mulsd, OP_divsd}) {
    roundTrip(Op, {R(REG_XMM0), R(REG_XMM1)});
    roundTrip(Op, {R(REG_XMM4), M(REG_EAX, 0, 8, REG_EBX, 8)});
  }
  roundTrip(OP_ucomisd, {R(REG_XMM0), R(REG_XMM5)});
  roundTrip(OP_ucomisd, {R(REG_XMM2), M(REG_ECX, 0x10, 8)});
  roundTrip(OP_cvtsi2sd, {R(REG_XMM3), R(REG_EAX)});
  roundTrip(OP_cvtsi2sd, {R(REG_XMM3), M(REG_EBP, -12)});
  roundTrip(OP_cvttsd2si, {R(REG_EDX), R(REG_XMM7)});
  roundTrip(OP_cvttsd2si, {R(REG_ESI), M(REG_ESP, 16, 8)});
}

TEST(IsaEncode, PrefixesSurviveRoundTrip) {
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  Operand Ex[2] = {R(REG_EAX), R(REG_EBX)};
  ASSERT_TRUE(
      buildCanonicalOperands(OP_add, Ex, 2, Srcs, NumSrcs, Dsts, NumDsts));
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(OP_add, PREFIX_LOCK | PREFIX_HINT, Srcs, NumSrcs, Dsts,
                        NumDsts, 0x1000, Buf);
  ASSERT_GT(Len, 0);
  DecodedInstr DI;
  ASSERT_TRUE(decodeInstr(Buf, size_t(Len), 0x1000, DI));
  EXPECT_EQ(DI.Prefixes, PREFIX_LOCK | PREFIX_HINT);
  EXPECT_EQ(DI.Op, OP_add);
}

TEST(IsaEncode, ShortFormsAreShortest) {
  // inc eax must use the one-byte 0x40 form.
  Operand Ex[1] = {R(REG_EAX)};
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  ASSERT_TRUE(
      buildCanonicalOperands(OP_inc, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts));
  uint8_t Buf[MaxInstrLength];
  EXPECT_EQ(encodeInstr(OP_inc, 0, Srcs, NumSrcs, Dsts, NumDsts, 0, Buf), 1);
  EXPECT_EQ(Buf[0], 0x40);

  // add ebx, 5 must use the 3-byte 0x83 imm8 form.
  Operand Ex2[2] = {R(REG_EBX), I8(5)};
  ASSERT_TRUE(
      buildCanonicalOperands(OP_add, Ex2, 2, Srcs, NumSrcs, Dsts, NumDsts));
  EXPECT_EQ(encodeInstr(OP_add, 0, Srcs, NumSrcs, Dsts, NumDsts, 0, Buf), 3);
  EXPECT_EQ(Buf[0], 0x83);

  // Short jmp to a nearby target is two bytes when permitted...
  Operand Ex3[1] = {Operand::pc(0x1010)};
  ASSERT_TRUE(
      buildCanonicalOperands(OP_jmp, Ex3, 1, Srcs, NumSrcs, Dsts, NumDsts));
  EXPECT_EQ(encodeInstr(OP_jmp, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf),
            2);
  // ...and five bytes when short branches are disabled (cache policy).
  EncodeOptions NoShort;
  NoShort.AllowShortBranches = false;
  EXPECT_EQ(encodeInstr(OP_jmp, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf,
                        NoShort),
            5);
}

/// An n-bit immediate slot takes values in [-2^(n-1), 2^n - 1]; anything
/// wider has no encoding rather than a silently truncated one.
TEST(IsaEncode, ImmediatesMustFitTheirSlot) {
  struct Case {
    Opcode Op;
    std::vector<Operand> Ex;
    bool Encodes;
  };
  const Case Cases[] = {
      {OP_mov_b, {R(REG_BL), I8(255)}, true},
      {OP_mov_b, {R(REG_BL), I8(-128)}, true},
      {OP_mov_b, {R(REG_BL), I8(300)}, false},
      {OP_mov_b, {R(REG_BL), I8(-129)}, false},
      {OP_mov_b, {M(REG_EAX, 0, 1), I8(256)}, false},
      {OP_mov, {R(REG_EBX), I8(0xFFFFFFFF)}, true},
      {OP_mov, {R(REG_EBX), I8(-0x80000000LL)}, true},
      {OP_mov, {R(REG_EBX), I8(0x1FFFFFFFFLL)}, false},
      {OP_mov, {R(REG_EBX), I8(-0x80000001LL)}, false},
      {OP_add, {R(REG_EBX), I8(0x100000000LL)}, false},
      {OP_add, {R(REG_EAX), I8(0x100000000LL)}, false},
      {OP_push, {I8(0x100000000LL)}, false},
      {OP_imul, {R(REG_EAX), R(REG_EBX), I8(0x100000000LL)}, false},
      {OP_ret_imm, {Operand::imm(0xFFFF, 2)}, true},
      {OP_ret_imm, {Operand::imm(0x10000, 2)}, false},
      {OP_int, {Operand::imm(0x80, 1)}, true},
      {OP_int, {Operand::imm(0x180, 1)}, false},
      {OP_shl, {R(REG_EAX), Operand::imm(0x101, 1)}, false},
      {OP_clientcall, {I8(0xFFFFFFFF)}, true},
      {OP_clientcall, {I8(0x100000000LL)}, false},
  };
  for (const Case &C : Cases) {
    Operand Srcs[MaxSrcs], Dsts[MaxDsts];
    unsigned NumSrcs = 0, NumDsts = 0;
    ASSERT_TRUE(buildCanonicalOperands(C.Op, C.Ex.data(), unsigned(C.Ex.size()),
                                       Srcs, NumSrcs, Dsts, NumDsts));
    uint8_t Buf[MaxInstrLength];
    int Len = encodeInstr(C.Op, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
    EXPECT_EQ(Len >= 0, C.Encodes)
        << opcodeName(C.Op) << " imm " << C.Ex.back().getImm();
  }
}

TEST(IsaDecode, LevelsAgreeOnLength) {
  // Build a few instructions and confirm all three decoders agree.
  const std::initializer_list<Operand> Forms[] = {
      {R(REG_EAX), R(REG_EBX)},
      {R(REG_ECX), M(REG_ESI, 0xC)},
      {M(REG_EBP, -8), R(REG_EDX)},
      {R(REG_EDI), I8(0x12345678)},
  };
  for (const auto &Form : Forms) {
    Operand Ex[MaxExplicit];
    unsigned NumEx = 0;
    for (const Operand &O : Form)
      Ex[NumEx++] = O;
    Operand Srcs[MaxSrcs], Dsts[MaxDsts];
    unsigned NumSrcs = 0, NumDsts = 0;
    ASSERT_TRUE(
        buildCanonicalOperands(OP_mov, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts));
    uint8_t Buf[MaxInstrLength];
    int Len = encodeInstr(OP_mov, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
    ASSERT_GT(Len, 0);
    EXPECT_EQ(decodeLength(Buf, size_t(Len)), Len);
    Opcode Op;
    uint32_t Eflags;
    int L2Len;
    ASSERT_TRUE(decodeOpcodeAndEflags(Buf, size_t(Len), Op, Eflags, L2Len));
    EXPECT_EQ(Op, OP_mov);
    EXPECT_EQ(L2Len, Len);
    EXPECT_EQ(Eflags, 0u);
  }
}

TEST(IsaDecode, TruncatedInstructionsFail) {
  // mov eax, imm32 truncated after 3 bytes.
  uint8_t Buf[] = {0xB8, 0x01, 0x02};
  DecodedInstr DI;
  EXPECT_FALSE(decodeInstr(Buf, sizeof(Buf), 0, DI));
  EXPECT_EQ(decodeLength(Buf, sizeof(Buf)), -1);
}

TEST(IsaDecode, InvalidOpcodeFails) {
  uint8_t Buf[] = {0x0F, 0xFF, 0x00, 0x00};
  DecodedInstr DI;
  EXPECT_FALSE(decodeInstr(Buf, sizeof(Buf), 0, DI));
}

TEST(IsaEflags, IncDoesNotTouchCarry) {
  EXPECT_EQ(opcodeInfo(OP_inc).EflagsEffect & EFLAGS_WRITE_CF, 0u);
  EXPECT_NE(opcodeInfo(OP_inc).EflagsEffect & EFLAGS_WRITE_ZF, 0u);
  EXPECT_NE(opcodeInfo(OP_add).EflagsEffect & EFLAGS_WRITE_CF, 0u);
  EXPECT_EQ(opcodeInfo(OP_adc).EflagsEffect & EFLAGS_READ_CF, EFLAGS_READ_CF);
  EXPECT_EQ(opcodeInfo(OP_jb).EflagsEffect, EFLAGS_READ_CF);
  EXPECT_EQ(opcodeInfo(OP_mov).EflagsEffect, 0u);
}

TEST(IsaEflags, InlineChainIngredients) {
  // The adaptive IB inline chains (core/IbInline.cpp) are built from
  // mov/lea/jecxz and bracketed by savef/restf only when flags are live.
  // Pin the effect masks those decisions rest on.
  EXPECT_EQ(opcodeInfo(OP_inc).EflagsEffect, uint32_t(EFLAGS_WRITE_NO_CF));
  EXPECT_EQ(opcodeInfo(OP_dec).EflagsEffect, uint32_t(EFLAGS_WRITE_NO_CF));
  EXPECT_EQ(uint32_t(EFLAGS_WRITE_NO_CF),
            uint32_t(EFLAGS_WRITE_ALL) & ~uint32_t(EFLAGS_WRITE_CF));

  // The chain building blocks must be flag-neutral: jecxz tests ecx, not
  // ZF, which is the whole reason the chain compares via lea + jecxz.
  EXPECT_EQ(opcodeInfo(OP_mov).EflagsEffect, 0u);
  EXPECT_EQ(opcodeInfo(OP_lea).EflagsEffect, 0u);
  EXPECT_EQ(opcodeInfo(OP_jecxz).EflagsEffect, 0u);

  // savef reads every arithmetic flag, restf writes every one; the dead
  // flag elision pass matches the pair through these masks.
  EXPECT_EQ(opcodeInfo(OP_savef).EflagsEffect, uint32_t(EFLAGS_READ_ALL));
  EXPECT_EQ(opcodeInfo(OP_restf).EflagsEffect, uint32_t(EFLAGS_WRITE_ALL));
  EXPECT_EQ(eflagsWriteToRead(opcodeInfo(OP_restf).EflagsEffect),
            uint32_t(EFLAGS_READ_ALL));
  EXPECT_EQ(eflagsReadToWrite(opcodeInfo(OP_savef).EflagsEffect),
            uint32_t(EFLAGS_WRITE_ALL));
}

TEST(IsaEflags, ShiftRefinement) {
  // shl eax, 3 (immediate nonzero count): pure write after full decode.
  Operand Ex[2] = {R(REG_EAX), Operand::imm(3, 1)};
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  ASSERT_TRUE(
      buildCanonicalOperands(OP_shl, Ex, 2, Srcs, NumSrcs, Dsts, NumDsts));
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(OP_shl, 0, Srcs, NumSrcs, Dsts, NumDsts, 0, Buf);
  ASSERT_GT(Len, 0);
  DecodedInstr DI;
  ASSERT_TRUE(decodeInstr(Buf, size_t(Len), 0, DI));
  EXPECT_EQ(DI.Eflags, uint32_t(EFLAGS_WRITE_ARITH));

  // shl eax, cl: conservative read+write.
  Ex[1] = R(REG_CL);
  ASSERT_TRUE(
      buildCanonicalOperands(OP_shl, Ex, 2, Srcs, NumSrcs, Dsts, NumDsts));
  Len = encodeInstr(OP_shl, 0, Srcs, NumSrcs, Dsts, NumDsts, 0, Buf);
  ASSERT_GT(Len, 0);
  ASSERT_TRUE(decodeInstr(Buf, size_t(Len), 0, DI));
  EXPECT_EQ(DI.Eflags, uint32_t(EFLAGS_READ_ALL | EFLAGS_WRITE_ALL));
}

TEST(IsaOpcodes, ClassificationFlags) {
  EXPECT_TRUE(opcodeIsCti(OP_jmp));
  EXPECT_TRUE(opcodeIsCti(OP_ret));
  EXPECT_TRUE(opcodeIsCti(OP_call_ind));
  EXPECT_FALSE(opcodeIsCti(OP_add));
  EXPECT_TRUE(opcodeIsCondBranch(OP_jz));
  EXPECT_FALSE(opcodeIsCondBranch(OP_jmp));
  EXPECT_TRUE(opcodeIsIndirectCti(OP_ret));
  EXPECT_TRUE(opcodeIsIndirectCti(OP_jmp_ind));
  EXPECT_FALSE(opcodeIsIndirectCti(OP_jmp));
  EXPECT_TRUE(opcodeIsCall(OP_call));
  EXPECT_TRUE(opcodeIsCall(OP_call_ind));
  EXPECT_TRUE(opcodeIsReturn(OP_ret_imm));
  EXPECT_EQ(invertCondBranch(OP_jz), OP_jnz);
  EXPECT_EQ(invertCondBranch(OP_jnle), OP_jle);
}

/// Property: random-but-valid instruction forms round-trip through
/// encode/decode for every ALU opcode and many operand shapes.
class RandomRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomRoundTrip, EncodeDecodeIdentity) {
  Rng Rand(GetParam());
  static const Register Gprs[] = {REG_EAX, REG_ECX, REG_EDX, REG_EBX,
                                  REG_ESP, REG_EBP, REG_ESI, REG_EDI};
  static const Opcode Alu[] = {OP_add, OP_or,  OP_adc, OP_sbb,
                               OP_and, OP_sub, OP_xor, OP_cmp};
  for (int Iter = 0; Iter != 200; ++Iter) {
    Opcode Op = Alu[Rand.nextBelow(8)];
    Register Dst = Gprs[Rand.nextBelow(8)];
    Operand Second;
    switch (Rand.nextBelow(3)) {
    case 0:
      Second = Operand::reg(Gprs[Rand.nextBelow(8)]);
      break;
    case 1:
      Second = Operand::imm(Rand.nextInRange(-100000, 100000), 4);
      break;
    default: {
      Register Base = Gprs[Rand.nextBelow(8)];
      Register Index = Gprs[Rand.nextBelow(8)];
      if (Index == REG_ESP)
        Index = REG_NULL;
      uint8_t Scale = uint8_t(1u << Rand.nextBelow(4));
      Second = Operand::mem(Base, int32_t(Rand.nextInRange(-4096, 4096)), 4,
                            Index, Index == REG_NULL ? 1 : Scale);
      break;
    }
    }
    roundTrip(Op, {Operand::reg(Dst), Second});
    if (Second.isMem())
      roundTrip(Op, {Second, Operand::reg(Dst)});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

} // namespace

namespace {

/// Exhaustive ModRM/SIB addressing-mode sweep: every base x index x scale
/// x displacement-class combination must round-trip through encode/decode
/// bit-exactly (as a mov load and a mov store).
TEST(IsaAddressing, ExhaustiveModrmSibSweep) {
  static const Register Bases[] = {REG_NULL, REG_EAX, REG_ECX, REG_EDX,
                                   REG_EBX,  REG_ESP, REG_EBP, REG_ESI,
                                   REG_EDI};
  static const Register Indexes[] = {REG_NULL, REG_EAX, REG_ECX, REG_EDX,
                                     REG_EBX,  REG_EBP, REG_ESI, REG_EDI};
  static const uint8_t Scales[] = {1, 2, 4, 8};
  static const int32_t Disps[] = {0,    1,    -1,        127,       -128,
                                  128,  -129, 0x12345678, -0x1000,  4096};
  unsigned Combos = 0;
  for (Register Base : Bases) {
    for (Register Index : Indexes) {
      for (uint8_t Scale : Scales) {
        if (Index == REG_NULL && Scale != 1)
          continue; // scale without an index is not a distinct mode
        for (int32_t Disp : Disps) {
          Operand Mem = Operand::mem(Base, Disp, 4, Index, Scale);
          roundTrip(OP_mov, {Operand::reg(REG_EDI), Mem});
          roundTrip(OP_mov, {Mem, Operand::reg(REG_ESI)});
          ++Combos;
        }
      }
    }
  }
  EXPECT_GT(Combos, 2000u);
}

/// Every byte register works in both directions of the byte move and as a
/// movzx/movsx source.
TEST(IsaAddressing, AllByteRegisters) {
  static const Register Bytes[] = {REG_AL, REG_CL, REG_DL, REG_BL,
                                   REG_AH, REG_CH, REG_DH, REG_BH};
  for (Register B : Bytes) {
    roundTrip(OP_mov_b, {Operand::reg(B), Operand::imm(0x5A, 1)});
    roundTrip(OP_mov_b, {Operand::mem(REG_ESI, 3, 1), Operand::reg(B)});
    roundTrip(OP_movzx_b, {Operand::reg(REG_EDX), Operand::reg(B)});
    roundTrip(OP_movsx_b, {Operand::reg(REG_EBP), Operand::reg(B)});
  }
}

/// Every xmm register in every scalar-double instruction position.
TEST(IsaAddressing, AllXmmRegisters) {
  for (unsigned I = 0; I != 8; ++I) {
    Register X = Register(REG_XMM0 + I);
    Register Y = Register(REG_XMM0 + ((I + 3) & 7));
    roundTrip(OP_movsd, {Operand::reg(X), Operand::reg(Y)});
    roundTrip(OP_movsd, {Operand::reg(X), Operand::mem(REG_EAX, 8, 8)});
    roundTrip(OP_addsd, {Operand::reg(X), Operand::reg(Y)});
    roundTrip(OP_divsd, {Operand::reg(X), Operand::mem(REG_EDI, -16, 8)});
    roundTrip(OP_cvttsd2si, {Operand::reg(REG_ECX), Operand::reg(X)});
  }
}

/// decodeLength agrees with full decode on every encodable form swept
/// above — the Level 0/1 boundary scanner can never disagree with the
/// full decoder about instruction extents.
TEST(IsaAddressing, BoundaryScanAgreesWithFullDecode) {
  Rng Rand(777);
  static const Register Gprs[] = {REG_EAX, REG_ECX, REG_EDX, REG_EBX,
                                  REG_ESP, REG_EBP, REG_ESI, REG_EDI};
  for (int Iter = 0; Iter != 500; ++Iter) {
    Register Base = Gprs[Rand.nextBelow(8)];
    Register Index = Gprs[Rand.nextBelow(8)];
    if (Index == REG_ESP)
      Index = REG_NULL;
    Operand Mem = Operand::mem(Base, int32_t(Rand.nextInRange(-5000, 5000)),
                               4, Index, Index == REG_NULL ? 1 : 4);
    Operand Srcs[MaxSrcs], Dsts[MaxDsts];
    unsigned NumSrcs = 0, NumDsts = 0;
    Operand Ex[2] = {Operand::reg(Gprs[Rand.nextBelow(8)]), Mem};
    ASSERT_TRUE(
        buildCanonicalOperands(OP_mov, Ex, 2, Srcs, NumSrcs, Dsts, NumDsts));
    uint8_t Buf[MaxInstrLength];
    int Len = encodeInstr(OP_mov, 0, Srcs, NumSrcs, Dsts, NumDsts, 0, Buf);
    ASSERT_GT(Len, 0);
    EXPECT_EQ(decodeLength(Buf, size_t(Len)), Len);
  }
}

} // namespace

namespace {

/// Robustness: the decoder must never misbehave on arbitrary bytes — it
/// either rejects them or reports a length within bounds — and the three
/// decoding strategies read the same form table, so they accept exactly the
/// same bytes with the same length and opcode.
class DecodeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecodeFuzz, ArbitraryBytesNeverBreakTheDecoder) {
  Rng Rand(GetParam());
  uint8_t Buf[MaxInstrLength + 4];
  for (int Iter = 0; Iter != 20000; ++Iter) {
    size_t Len = 1 + Rand.nextBelow(sizeof(Buf));
    for (size_t I = 0; I != Len; ++I)
      Buf[I] = uint8_t(Rand.next());

    int L0 = decodeLength(Buf, Len);
    Opcode Op;
    uint32_t Eflags;
    int L2;
    bool Ok2 = decodeOpcodeAndEflags(Buf, Len, Op, Eflags, L2);
    DecodedInstr DI;
    bool Ok3 = decodeInstr(Buf, Len, 0x1000, DI);

    // Agreement across strategies: each level succeeds iff full decode
    // does, with the same length.
    ASSERT_EQ(L0 >= 0, Ok3);
    ASSERT_EQ(Ok2, Ok3);
    if (!Ok3)
      continue;
    EXPECT_EQ(L0, DI.Length);
    EXPECT_EQ(L2, DI.Length);
    EXPECT_EQ(DI.Op, Op);
    EXPECT_EQ(DI.Eflags, Eflags);
    EXPECT_LE(DI.Length, MaxInstrLength);
    EXPECT_LE(size_t(DI.Length), Len);
    // Whatever decoded must re-encode (possibly shorter, never invalid).
    uint8_t Out[MaxInstrLength];
    EncodeOptions Opts;
    Opts.AllowShortBranches = true;
    int Re = encodeInstr(DI, 0x1000, Out, Opts);
    EXPECT_GT(Re, 0) << "decoded instruction failed to re-encode";
  }
}

/// Memory-only forms with a register operand (lea eax, eax; savef eax;
/// movzx eax, ax) are invalid at every level of detail.
TEST(IsaDecode, RegisterOperandInMemoryOnlyFormFailsAtEveryLevel) {
  const std::vector<uint8_t> Cases[] = {
      {0x8D, 0xC0}, {0x0F, 0x05, 0xC0}, {0x0F, 0xB7, 0xC0}};
  for (const std::vector<uint8_t> &Bytes : Cases) {
    EXPECT_EQ(decodeLength(Bytes.data(), Bytes.size()), -1);
    Opcode Op;
    uint32_t Eflags;
    int Len;
    EXPECT_FALSE(
        decodeOpcodeAndEflags(Bytes.data(), Bytes.size(), Op, Eflags, Len));
    DecodedInstr DI;
    EXPECT_FALSE(decodeInstr(Bytes.data(), Bytes.size(), 0x1000, DI));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(101, 202));

} // namespace

namespace {

/// FNV-1a 64-bit fold.
struct Fnv64 {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      byte(uint8_t(V >> (8 * I)));
  }
};

void foldOperand(Fnv64 &F, const Operand &O) {
  F.u64(uint64_t(O.kind()) | uint64_t(O.sizeBytes()) << 8);
  switch (O.kind()) {
  case Operand::RegKind:
    F.u64(O.getReg());
    break;
  case Operand::ImmKind:
    F.u64(uint64_t(O.getImm()));
    break;
  case Operand::MemKind:
    F.u64(uint64_t(O.getBase()) | uint64_t(O.getIndex()) << 8 |
          uint64_t(O.getScale()) << 16 | uint64_t(uint32_t(O.getDisp())) << 32);
    break;
  case Operand::PcKind:
    F.u64(O.getPc());
    break;
  default:
    break;
  }
}

/// Folds the full decode of Bytes[0, Len) at 0x1000 and, when it decodes,
/// its re-encoding with short branches on and off at two pcs.
void foldDecode(Fnv64 &F, const uint8_t *Bytes, size_t Len) {
  DecodedInstr DI;
  bool Ok = decodeInstr(Bytes, Len, 0x1000, DI);
  F.byte(Ok);
  if (!Ok)
    return;
  F.u64(uint64_t(DI.Length) | uint64_t(DI.Op) << 8 |
        uint64_t(DI.Prefixes) << 24 | uint64_t(DI.Eflags) << 32);
  F.byte(DI.NumSrcs);
  for (unsigned I = 0; I != DI.NumSrcs; ++I)
    foldOperand(F, DI.Srcs[I]);
  F.byte(DI.NumDsts);
  for (unsigned I = 0; I != DI.NumDsts; ++I)
    foldOperand(F, DI.Dsts[I]);
  for (bool Short : {true, false}) {
    EncodeOptions Opts;
    Opts.AllowShortBranches = Short;
    for (AppPc Pc : {AppPc(0x1000), AppPc(0x1100)}) {
      uint8_t Out[MaxInstrLength];
      int Re = encodeInstr(DI, Pc, Out, Opts);
      F.u64(uint64_t(int64_t(Re)));
      for (int I = 0; I < Re; ++I)
        F.byte(Out[I]);
    }
  }
}

/// Pins today's RIO-32 byte forms: every one-byte opcode and every 0F,
/// F2 0F and 66 0F second byte, each followed by all 256 ModRM bytes (and a
/// fixed SIB set where rm=4 selects one) and fixed displacement/immediate
/// bytes, bare, behind F0 and behind 3E F0, decoded at every truncation.
/// The full decode and its re-encodings fold into one digest. The constant
/// was recorded from the hand-written per-opcode decoder and encoder that
/// the form table replaced; never edit it: a new value is a new ISA.
TEST(IsaGolden, CorpusDigestIsPinned) {
  static const uint8_t Sibs[] = {0x00, 0x25, 0xCC};
  static const uint8_t Tail[] = {0x7C, 0x05, 0x00, 0x80, 0xFE, 0x01, 0x00,
                                 0x00};
  struct Head {
    uint8_t Bytes[3];
    uint8_t Len;
  };
  std::vector<Head> Heads;
  for (unsigned B = 0; B != 256; ++B) {
    Heads.push_back({{uint8_t(B)}, 1});
    Heads.push_back({{0x0F, uint8_t(B)}, 2});
    Heads.push_back({{0xF2, 0x0F, uint8_t(B)}, 3});
    Heads.push_back({{0x66, 0x0F, uint8_t(B)}, 3});
  }
  Fnv64 F;
  unsigned Decoded = 0;
  uint8_t Buf[32];
  static const std::vector<uint8_t> PrefixSets[] = {{}, {0xF0}, {0x3E, 0xF0}};
  for (const std::vector<uint8_t> &Prefixes : PrefixSets) {
    for (const Head &H : Heads) {
      for (unsigned ModRm = 0; ModRm != 256; ++ModRm) {
        bool HasSib = (ModRm & 7) == 4 && (ModRm >> 6) != 3;
        for (unsigned S = 0; S != (HasSib ? std::size(Sibs) : 1); ++S) {
          size_t Len = 0;
          for (uint8_t P : Prefixes)
            Buf[Len++] = P;
          for (unsigned I = 0; I != H.Len; ++I)
            Buf[Len++] = H.Bytes[I];
          Buf[Len++] = uint8_t(ModRm);
          if (HasSib)
            Buf[Len++] = Sibs[S];
          for (uint8_t T : Tail)
            Buf[Len++] = T;
          for (size_t Cut = 1; Cut <= Len; ++Cut) {
            foldDecode(F, Buf, Cut);
            ++Decoded;
          }
        }
      }
    }
  }
  EXPECT_GT(Decoded, 10000000u);
  EXPECT_EQ(F.H, 0x3ce6af721a051b7dull) << std::hex << "digest 0x" << F.H;
}

/// Pins today's canonical operand layouts: every opcode with 0-3 explicit
/// operands drawn from a fixed kind set (gpr32, gpr8, xmm, imm, pc, and
/// memory of width 1/2/4/8; each position gets its own register, value or
/// displacement, so a swap of two operands shows). buildCanonicalOperands'
/// verdict, counts and operands, and getExplicitOperands applied to its
/// result, fold into one digest. The constant was recorded from the
/// hand-written per-opcode layout switches; never edit it: a new value is a
/// new operand model.
TEST(OperandLayoutGolden, DigestIsPinned) {
  constexpr unsigned NumKinds = 9;
  auto make = [](unsigned Kind, unsigned Pos) {
    switch (Kind) {
    case 0:
      return Operand::reg(Register(REG_EBP + Pos));
    case 1:
      return Operand::reg(Register(REG_CL + Pos));
    case 2:
      return Operand::reg(Register(REG_XMM1 + Pos));
    case 3:
      return Operand::imm(100 + Pos, 4);
    case 4:
      return Operand::pc(0x2000 + 16 * Pos);
    default: // memory of width 1, 2, 4, 8
      return Operand::mem(REG_ESI, int32_t(8 * Pos + 4),
                          uint8_t(1u << (Kind - 5)), REG_EDX, 2);
    }
  };
  Fnv64 F;
  unsigned Accepted = 0;
  for (unsigned OpIdx = 0; OpIdx != NUM_OPCODES; ++OpIdx) {
    Opcode Op = Opcode(OpIdx);
    for (unsigned NumEx = 0; NumEx <= MaxExplicit; ++NumEx) {
      unsigned Combos = 1;
      for (unsigned Pos = 0; Pos != NumEx; ++Pos)
        Combos *= NumKinds;
      for (unsigned Combo = 0; Combo != Combos; ++Combo) {
        Operand Ex[MaxExplicit];
        for (unsigned Pos = 0, C = Combo; Pos != NumEx; ++Pos, C /= NumKinds)
          Ex[Pos] = make(C % NumKinds, Pos);
        Operand Srcs[MaxSrcs], Dsts[MaxDsts];
        unsigned NumSrcs = 0, NumDsts = 0;
        bool Ok =
            buildCanonicalOperands(Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts);
        F.u64(uint64_t(Op) | uint64_t(NumEx) << 16 | uint64_t(Combo) << 24 |
              uint64_t(Ok) << 56);
        if (!Ok)
          continue;
        ++Accepted;
        F.byte(uint8_t(NumSrcs));
        for (unsigned I = 0; I != NumSrcs; ++I)
          foldOperand(F, Srcs[I]);
        F.byte(uint8_t(NumDsts));
        for (unsigned I = 0; I != NumDsts; ++I)
          foldOperand(F, Dsts[I]);
        Operand Back[MaxExplicit];
        unsigned NumBack =
            getExplicitOperands(Op, Srcs, NumSrcs, Dsts, NumDsts, Back);
        F.byte(uint8_t(NumBack));
        for (unsigned I = 0; I != NumBack; ++I)
          foldOperand(F, Back[I]);
      }
    }
  }
  EXPECT_GT(Accepted, 1000u);
  EXPECT_EQ(F.H, 0x0d455a141a793f08ull) << std::hex << "digest 0x" << F.H;
}

} // namespace
