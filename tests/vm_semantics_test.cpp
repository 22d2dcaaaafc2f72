//===- tests/vm_semantics_test.cpp - ALU/flag semantics vs reference model ----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based checks of the interpreter's arithmetic and eflags
/// semantics against an independent C++ reference model, over randomized
/// operand values. The strength-reduction client's legality argument rests
/// entirely on these flag semantics (inc/dec vs add/sub CF behaviour), so
/// they get the heaviest scrutiny.
///
//===----------------------------------------------------------------------===//

#include "isa/Encode.h"
#include "isa/OperandLayout.h"
#include "support/Rng.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>
#include <string>

using namespace rio;

namespace {

struct Flags {
  bool CF, PF, AF, ZF, SF, OF;
};

Flags flagsOf(const CpuState &Cpu) {
  return {Cpu.flag(EFLAGS_CF), Cpu.flag(EFLAGS_PF), Cpu.flag(EFLAGS_AF),
          Cpu.flag(EFLAGS_ZF), Cpu.flag(EFLAGS_SF), Cpu.flag(EFLAGS_OF)};
}

bool refParity(uint32_t V) {
  unsigned Bits = 0;
  for (int I = 0; I != 8; ++I)
    Bits += (V >> I) & 1;
  return Bits % 2 == 0;
}

/// Reference two-operand ALU model (independent of the interpreter code).
struct Ref {
  uint32_t Result;
  Flags F;
};

Ref refAdd(uint32_t A, uint32_t B, bool Cin) {
  uint64_t Wide = uint64_t(A) + uint64_t(B) + (Cin ? 1 : 0);
  uint32_t R = uint32_t(Wide);
  int64_t Signed = int64_t(int32_t(A)) + int64_t(int32_t(B)) + (Cin ? 1 : 0);
  Ref Out;
  Out.Result = R;
  Out.F = {Wide > 0xFFFFFFFFull,
           refParity(R),
           (((A & 0xF) + (B & 0xF) + (Cin ? 1 : 0)) & 0x10) != 0,
           R == 0,
           int32_t(R) < 0,
           Signed != int64_t(int32_t(R))};
  return Out;
}

Ref refSub(uint32_t A, uint32_t B, bool Bin) {
  uint32_t R = A - B - (Bin ? 1 : 0);
  int64_t Signed = int64_t(int32_t(A)) - int64_t(int32_t(B)) - (Bin ? 1 : 0);
  Ref Out;
  Out.Result = R;
  Out.F = {uint64_t(A) < uint64_t(B) + (Bin ? 1 : 0),
           refParity(R),
           (((A & 0xF) - (B & 0xF) - (Bin ? 1 : 0)) & 0x10) != 0,
           R == 0,
           int32_t(R) < 0,
           Signed != int64_t(int32_t(R))};
  return Out;
}

Ref refLogic(uint32_t R) {
  return {R, {false, refParity(R), false, R == 0, int32_t(R) < 0, false}};
}

/// Operand shapes of an instruction, in assembly order (destination
/// first): the register/immediate/memory combinations the interpreter
/// dispatches on. Unary instructions use only the destination (RegReg is
/// `op eax`, MemReg is `op [mem]`).
enum class Shape { RegReg, RegImm, RegMem, MemReg, MemImm };
const Shape AllShapes[] = {Shape::RegReg, Shape::RegImm, Shape::RegMem,
                           Shape::MemReg, Shape::MemImm};
const char *const ShapeNames[] = {"reg,reg", "reg,imm", "reg,mem", "mem,reg",
                                  "mem,imm"};

/// Where memory operands point: [esi + 0x10].
constexpr uint32_t DataAddr = 0x2000;

/// Final state after execOne.
struct ExecOut {
  uint32_t Eax; ///< the destination's final value (eax or [mem])
  Flags F;
  bool Ok;
};

MachineConfig tinyConfig() {
  MachineConfig MC;
  MC.AppRegionSize = 64 * 1024; // single-instruction tests need no space
  MC.RuntimeRegionSize = 64 * 1024;
  return MC;
}

/// Encodes \p Op over explicit operands \p Ex at 0x1000 in \p M's memory;
/// false if the ISA has no such form.
bool placeOne(Machine &M, Opcode Op, const Operand *Ex, unsigned NumEx) {
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  if (!buildCanonicalOperands(Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts))
    return false;
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
  if (Len <= 0)
    return false;
  M.mem().writeBlock(0x1000, Buf, unsigned(Len));
  M.cpu().Pc = 0x1000;
  return true;
}

bool isUnary(Opcode Op) {
  return Op == OP_inc || Op == OP_dec || Op == OP_neg || Op == OP_not;
}

/// The explicit operands of shape \p S: destination eax or [esi + 0x10],
/// source ebx, \p Imm or [esi + 0x10].
void shapeOperands(Shape S, uint32_t Imm, Operand Ex[2]) {
  const Operand Mem = Operand::mem(REG_ESI, 0x10);
  Ex[0] = S == Shape::MemReg || S == Shape::MemImm ? Mem
                                                   : Operand::reg(REG_EAX);
  Ex[1] = S == Shape::RegImm || S == Shape::MemImm
              ? Operand::imm(int64_t(int32_t(Imm)), 4)
          : S == Shape::RegMem ? Mem
                               : Operand::reg(REG_EBX);
}

/// True if the ISA encodes \p Op in shape \p S.
bool hasShape(Opcode Op, Shape S) {
  if (isUnary(Op) && S != Shape::RegReg && S != Shape::MemReg)
    return false;
  Machine M(tinyConfig());
  Operand Ex[2];
  shapeOperands(S, 0x12345678, Ex);
  return placeOne(M, Op, Ex, isUnary(Op) ? 1 : 2);
}

/// Executes a single encoded instruction on a fresh machine with A in the
/// shape's destination and B in its source, and the carry flag preset;
/// returns final state.
ExecOut execOne(Opcode Op, uint32_t A, uint32_t B, bool CarryIn,
                Shape S = Shape::RegReg) {
  Machine M(tinyConfig());
  CpuState &Cpu = M.cpu();
  Cpu.writeGpr32(REG_EAX, A);
  Cpu.writeGpr32(REG_EBX, B);
  Cpu.writeGpr32(REG_ESI, DataAddr - 0x10);
  Cpu.setFlag(EFLAGS_CF, CarryIn);

  const bool DstMem = S == Shape::MemReg || S == Shape::MemImm;
  if (DstMem)
    M.mem().write32(DataAddr, A);
  if (S == Shape::RegMem)
    M.mem().write32(DataAddr, B);
  Operand Ex[2];
  shapeOperands(S, B, Ex);
  EXPECT_TRUE(placeOne(M, Op, Ex, isUnary(Op) ? 1 : 2))
      << opcodeName(Op) << " " << ShapeNames[int(S)];
  StepResult Step = M.step();

  ExecOut Out;
  Out.Ok = Step.Kind == StepKind::Ok;
  Out.Eax = Cpu.readGpr32(REG_EAX);
  if (DstMem)
    M.mem().read32(DataAddr, Out.Eax);
  Out.F = flagsOf(Cpu);
  return Out;
}

void expectFlags(const Flags &Got, const Flags &Want, const char *What,
                 uint32_t A, uint32_t B) {
  EXPECT_EQ(Got.CF, Want.CF) << What << " CF for " << A << "," << B;
  EXPECT_EQ(Got.PF, Want.PF) << What << " PF for " << A << "," << B;
  EXPECT_EQ(Got.AF, Want.AF) << What << " AF for " << A << "," << B;
  EXPECT_EQ(Got.ZF, Want.ZF) << What << " ZF for " << A << "," << B;
  EXPECT_EQ(Got.SF, Want.SF) << What << " SF for " << A << "," << B;
  EXPECT_EQ(Got.OF, Want.OF) << What << " OF for " << A << "," << B;
}

class AluSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AluSemantics, MatchesReferenceModel) {
  Rng Rand(GetParam());
  // Boundary values mixed with random ones.
  const uint32_t Interesting[] = {0,          1,          0x7FFFFFFF,
                                  0x80000000, 0xFFFFFFFF, 0xFFFF,
                                  0x10000,    0x7F,       0x80};
  const Opcode Ops[] = {OP_add, OP_adc, OP_sub, OP_sbb, OP_cmp,
                        OP_and, OP_or,  OP_xor, OP_test, OP_inc,
                        OP_dec, OP_neg, OP_not};
  for (Shape S : AllShapes) {
    const char *SN = ShapeNames[int(S)];
    std::set<Opcode> Has;
    for (Opcode Op : Ops)
      if (hasShape(Op, S))
        Has.insert(Op);
    for (int Iter = 0; Iter != 300; ++Iter) {
      uint32_t A = Rand.chance(1, 3)
                       ? Interesting[Rand.nextBelow(std::size(Interesting))]
                       : uint32_t(Rand.next());
      uint32_t B = Rand.chance(1, 3)
                       ? Interesting[Rand.nextBelow(std::size(Interesting))]
                       : uint32_t(Rand.next());
      bool Cin = Rand.chance(1, 2);
      // Checks Op against the reference result and flags.
      auto Check = [&](Opcode Op, const Ref &Want) {
        if (!Has.count(Op))
          return;
        ExecOut Got = execOne(Op, A, B, Cin, S);
        std::string What = std::string(opcodeName(Op)) + " " + SN;
        ASSERT_TRUE(Got.Ok) << What;
        EXPECT_EQ(Got.Eax, Want.Result) << What;
        expectFlags(Got.F, Want.F, What.c_str(), A, B);
      };

      Check(OP_add, refAdd(A, B, false));
      Check(OP_adc, refAdd(A, B, Cin));
      Check(OP_sub, refSub(A, B, false));
      Check(OP_sbb, refSub(A, B, Cin));
      {
        // cmp/test must not write their operand.
        Ref Want = refSub(A, B, false);
        Want.Result = A;
        Check(OP_cmp, Want);
        Want = refLogic(A & B);
        Want.Result = A;
        Check(OP_test, Want);
      }
      Check(OP_and, refLogic(A & B));
      Check(OP_or, refLogic(A | B));
      Check(OP_xor, refLogic(A ^ B));
      {
        // inc: like add 1 for every flag EXCEPT CF, which must be preserved.
        Ref Want = refAdd(A, 1, false);
        Want.F.CF = Cin; // untouched
        Check(OP_inc, Want);
        Want = refSub(A, 1, false);
        Want.F.CF = Cin; // untouched
        Check(OP_dec, Want);
      }
      // neg: sub from zero; CF set iff operand nonzero.
      Check(OP_neg, refSub(0, A, false));
      if (Has.count(OP_not)) {
        // not: no flags at all.
        ExecOut Got = execOne(OP_not, A, B, Cin, S);
        EXPECT_EQ(Got.Eax, ~A) << "not " << SN;
        EXPECT_EQ(Got.F.CF, Cin) << "not must not touch flags";
      }
    }
  }
}

/// Every shape the interpreter specializes is one the ISA encodes, so the
/// reference checks above reach each specialized form.
TEST(AluShapes, CoverEverySpecializedForm) {
  for (Opcode Op : {OP_add, OP_sub, OP_and, OP_or, OP_xor, OP_cmp, OP_test})
    for (Shape S : {Shape::RegReg, Shape::RegImm})
      EXPECT_TRUE(hasShape(Op, S)) << opcodeName(Op) << ShapeNames[int(S)];
  for (Opcode Op : {OP_add, OP_sub, OP_and, OP_or, OP_xor, OP_cmp})
    for (Shape S : {Shape::RegMem, Shape::MemReg, Shape::MemImm})
      EXPECT_TRUE(hasShape(Op, S)) << opcodeName(Op) << ShapeNames[int(S)];
  for (Opcode Op : {OP_inc, OP_dec})
    for (Shape S : {Shape::RegReg, Shape::MemReg})
      EXPECT_TRUE(hasShape(Op, S)) << opcodeName(Op) << ShapeNames[int(S)];
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluSemantics,
                         ::testing::Values(11, 22, 33, 44));

/// The inc-vs-add CF distinction observed end to end: this is the paper's
/// Section 4.2 legality condition as a hardware-visible property.
TEST(IncAddDistinction, CarryVisibleDifference) {
  for (bool Cin : {false, true}) {
    ExecOut Inc = execOne(OP_inc, 41, 0, Cin);
    ExecOut Add = execOne(OP_add, 41, 0, Cin); // eax += ebx(=0)... not 1!
    (void)Add;
    EXPECT_EQ(Inc.Eax, 42u);
    EXPECT_EQ(Inc.F.CF, Cin) << "inc preserves CF";
  }
  // add 0xFFFFFFFF + 1 sets CF; inc of 0xFFFFFFFF must not.
  ExecOut IncWrap = execOne(OP_inc, 0xFFFFFFFF, 0, false);
  EXPECT_EQ(IncWrap.Eax, 0u);
  EXPECT_FALSE(IncWrap.F.CF);
  EXPECT_TRUE(IncWrap.F.ZF);
  ExecOut AddWrap = execOne(OP_add, 0xFFFFFFFF, 1, false);
  EXPECT_EQ(AddWrap.Eax, 0u);
  EXPECT_TRUE(AddWrap.F.CF) << "add through zero carries";
}

class ShiftSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShiftSemantics, MatchesReference) {
  Rng Rand(GetParam());
  for (int Iter = 0; Iter != 200; ++Iter) {
    uint32_t A = uint32_t(Rand.next());
    unsigned Count = unsigned(Rand.nextBelow(32));
    if (Count == 0)
      Count = 1;

    // The three shapes: reg, imm (specialized for shl/shr), [mem], imm
    // and reg, cl.
    for (int Form = 0; Form != 3; ++Form) {
      auto Shift = [&](Opcode Op) {
        Machine M(tinyConfig());
        M.cpu().writeGpr32(REG_EAX, A);
        M.cpu().writeGpr32(REG_ECX, Count);
        M.cpu().writeGpr32(REG_ESI, DataAddr - 0x10);
        M.mem().write32(DataAddr, A);
        Operand Ex[2] = {Operand::reg(REG_EAX),
                         Operand::imm(int64_t(Count), 1)};
        if (Form == 1)
          Ex[0] = Operand::mem(REG_ESI, 0x10);
        if (Form == 2)
          Ex[1] = Operand::reg(REG_CL);
        EXPECT_TRUE(placeOne(M, Op, Ex, 2)) << opcodeName(Op) << Form;
        EXPECT_EQ(M.step().Kind, StepKind::Ok);
        uint32_t V = M.cpu().readGpr32(REG_EAX);
        if (Form == 1)
          M.mem().read32(DataAddr, V);
        return std::pair(V, flagsOf(M.cpu()));
      };

      auto [ShlR, ShlF] = Shift(OP_shl);
      EXPECT_EQ(ShlR, A << Count) << Form;
      EXPECT_EQ(ShlF.CF, ((A >> (32 - Count)) & 1) != 0) << Form;
      EXPECT_EQ(ShlF.ZF, (A << Count) == 0) << Form;
      EXPECT_EQ(ShlF.SF, int32_t(A << Count) < 0) << Form;
      EXPECT_EQ(ShlF.PF, refParity(A << Count)) << Form;
      if (Count == 1) {
        EXPECT_EQ(ShlF.OF, (int32_t(A << 1) < 0) != ((A >> 31) != 0));
      }

      auto [ShrR, ShrF] = Shift(OP_shr);
      EXPECT_EQ(ShrR, A >> Count) << Form;
      EXPECT_EQ(ShrF.CF, ((A >> (Count - 1)) & 1) != 0) << Form;
      EXPECT_EQ(ShrF.ZF, (A >> Count) == 0) << Form;
      EXPECT_EQ(ShrF.PF, refParity(A >> Count)) << Form;
      if (Count == 1) {
        EXPECT_EQ(ShrF.OF, int32_t(A) < 0) << Form;
      }

      auto [SarR, SarF] = Shift(OP_sar);
      EXPECT_EQ(SarR, uint32_t(int32_t(A) >> Count)) << Form;
      EXPECT_EQ(SarF.CF, ((int32_t(A) >> (Count - 1)) & 1) != 0) << Form;
      EXPECT_FALSE(SarF.OF) << Form;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShiftSemantics, ::testing::Values(7, 8));

TEST(ShiftCount, MaskedZeroChangesNothing) {
  for (Opcode Op : {OP_shl, OP_shr, OP_sar})
    for (unsigned Count : {0u, 32u})
      for (bool ToMem : {false, true}) {
        Machine M(tinyConfig());
        M.cpu().writeGpr32(REG_EAX, 0x80000001u);
        M.cpu().writeGpr32(REG_ESI, DataAddr - 0x10);
        M.mem().write32(DataAddr, 0x80000001u);
        M.cpu().Eflags = EFLAGS_CF | EFLAGS_ZF | EFLAGS_OF;
        Operand Ex[2] = {ToMem ? Operand::mem(REG_ESI, 0x10)
                               : Operand::reg(REG_EAX),
                         Operand::imm(int64_t(Count), 1)};
        ASSERT_TRUE(placeOne(M, Op, Ex, 2));
        ASSERT_EQ(M.step().Kind, StepKind::Ok);
        uint32_t V = 0;
        M.mem().read32(DataAddr, V);
        EXPECT_EQ(M.cpu().readGpr32(REG_EAX), 0x80000001u);
        EXPECT_EQ(V, 0x80000001u);
        EXPECT_EQ(M.cpu().Eflags, uint32_t(EFLAGS_CF | EFLAGS_ZF | EFLAGS_OF))
            << opcodeName(Op) << " by " << Count;
      }
}

/// Every conditional branch, and jecxz, over all 32 combinations of the
/// flags conditions read: taken exactly when the reference condition holds,
/// with the flags left as they were.
TEST(BranchSemantics, ConditionTable) {
  auto Holds = [](unsigned Cc, bool CF, bool PF, bool ZF, bool SF, bool OF) {
    bool R = false;
    switch (Cc >> 1) {
    case 0: R = OF; break;
    case 1: R = CF; break;
    case 2: R = ZF; break;
    case 3: R = CF || ZF; break;
    case 4: R = SF; break;
    case 5: R = PF; break;
    case 6: R = SF != OF; break;
    case 7: R = ZF || SF != OF; break;
    }
    return (Cc & 1) ? !R : R;
  };
  constexpr AppPc Target = 0x1040;
  for (unsigned Combo = 0; Combo != 32; ++Combo) {
    const bool CF = Combo & 1, PF = Combo & 2, ZF = Combo & 4, SF = Combo & 8,
               OF = Combo & 16;
    uint32_t Eflags = 0;
    for (auto [Set, Bit] : {std::pair(CF, EFLAGS_CF), std::pair(PF, EFLAGS_PF),
                            std::pair(ZF, EFLAGS_ZF), std::pair(SF, EFLAGS_SF),
                            std::pair(OF, EFLAGS_OF)})
      Eflags |= Set ? uint32_t(Bit) : 0u;
    for (unsigned Cc = 0; Cc != 17; ++Cc) {
      // Cc 16 is jecxz, once with ecx = 0 and once with ecx = 1.
      for (uint32_t Ecx : {0u, 1u}) {
        if (Cc != 16 && Ecx != 0)
          continue;
        const Opcode Op = Cc == 16 ? OP_jecxz : condBranchForCode(Cc);
        Machine M(tinyConfig());
        M.cpu().Eflags = Eflags;
        M.cpu().writeGpr32(REG_ECX, Ecx);
        Operand Ex[1] = {Operand::pc(Target)};
        ASSERT_TRUE(placeOne(M, Op, Ex, 1)) << opcodeName(Op);
        ASSERT_EQ(M.step().Kind, StepKind::Ok);
        const bool Taken = Cc == 16 ? Ecx == 0 : Holds(Cc, CF, PF, ZF, SF, OF);
        EXPECT_EQ(M.cpu().Pc == Target, Taken)
            << opcodeName(Op) << " flags combo " << Combo << " ecx " << Ecx;
        EXPECT_NE(M.cpu().Pc, 0x1000u);
        EXPECT_EQ(M.cpu().Eflags, Eflags);
      }
    }
  }
}

/// Each specialized memory form, aimed at the first address past memory,
/// faults as every memory access does: a Faulted step at the instruction,
/// the out-of-bounds reason, and nothing written.
TEST(MemFormSemantics, FirstOutOfBoundsAddressFaults) {
  struct Case {
    Opcode Op;
    std::vector<Operand> Ex;
  };
  const Operand Mem = Operand::mem(REG_ESI, 0x10);
  const Operand Mem8 = Operand::mem(REG_ESI, 0x10, 1);
  const Operand Mem64 = Operand::mem(REG_ESI, 0x10, 8);
  const Operand Eax = Operand::reg(REG_EAX);
  const Operand Xmm0 = Operand::reg(REG_XMM0), Xmm1 = Operand::reg(REG_XMM1);
  const Case Cases[] = {
      {OP_mov, {Eax, Mem}},           {OP_mov, {Mem, Eax}},
      {OP_mov, {Mem, Operand::imm(7)}}, {OP_movzx_b, {Eax, Mem8}},
      {OP_movsd, {Xmm0, Mem64}},      {OP_movsd, {Mem64, Xmm0}},
      {OP_addsd, {Xmm0, Mem64}},      {OP_mulsd, {Xmm1, Mem64}},
      {OP_push, {Eax}},               {OP_push, {Operand::imm(7)}},
      {OP_pop, {Eax}},
  };
  for (const Case &C : Cases) {
    Machine M(tinyConfig());
    const uint32_t End = M.mem().size();
    M.cpu().writeGpr32(REG_EAX, 0x1234);
    M.cpu().writeGpr32(REG_ESI, End - 0x10);
    // push stores at esp - 4; pop loads at esp.
    M.cpu().writeGpr32(REG_ESP, C.Op == OP_pop ? End : End + 4);
    M.cpu().Xmm[0] = 1.5;
    M.cpu().Xmm[1] = 2.5;
    ASSERT_TRUE(placeOne(M, C.Op, C.Ex.data(), unsigned(C.Ex.size())))
        << opcodeName(C.Op);
    const CpuState Before = M.cpu();
    StepResult Step = M.step();
    const std::string What = opcodeName(C.Op);
    EXPECT_EQ(Step.Kind, StepKind::Faulted) << What;
    EXPECT_EQ(M.status(), RunStatus::Faulted) << What;
    EXPECT_EQ(M.faultReason(), "memory access out of bounds at pc 4096")
        << What;
    EXPECT_EQ(M.lastPc(), 0x1000u) << What;
    EXPECT_EQ(M.cpu().Pc, 0x1000u) << What;
    EXPECT_EQ(M.instructionsExecuted(), 1u) << What;
    for (unsigned R = 0; R != 8; ++R) {
      EXPECT_EQ(M.cpu().Gpr[R], Before.Gpr[R]) << What << " gpr " << R;
      EXPECT_EQ(M.cpu().Xmm[R], Before.Xmm[R]) << What << " xmm " << R;
    }
  }
}

/// imul in each form: r, rm (register and memory) and r, rm, imm (the
/// specialized r, r, imm and the generic r, mem, imm).
TEST(ImulSemantics, EveryFormMatchesReference) {
  Rng Rand(4242);
  const Operand Eax = Operand::reg(REG_EAX), Ebx = Operand::reg(REG_EBX);
  const Operand Mem = Operand::mem(REG_ESI, 0x10);
  for (int Iter = 0; Iter != 200; ++Iter) {
    const uint32_t A = uint32_t(Rand.next());
    // Small factors too, so that some products fit in 32 bits.
    const uint32_t B = Rand.chance(1, 2) ? uint32_t(Rand.next())
                                         : uint32_t(Rand.nextInRange(-9, 9));
    const int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
    const bool Overflow = Full != int64_t(int32_t(uint32_t(Full)));
    for (int Form = 0; Form != 4; ++Form) {
      Machine M(tinyConfig());
      // eax * ebx, eax * [mem], ebx * imm, [mem] * imm.
      M.cpu().writeGpr32(REG_EAX, Form < 2 ? A : 0);
      M.cpu().writeGpr32(REG_EBX, Form == 2 ? A : B);
      M.cpu().writeGpr32(REG_ESI, DataAddr - 0x10);
      M.mem().write32(DataAddr, Form == 3 ? A : B);
      const Operand Imm = Operand::imm(int64_t(int32_t(B)), 4);
      const std::vector<Operand> Ex[] = {
          {Eax, Ebx}, {Eax, Mem}, {Eax, Ebx, Imm}, {Eax, Mem, Imm}};
      ASSERT_TRUE(placeOne(M, OP_imul, Ex[Form].data(),
                           unsigned(Ex[Form].size())))
          << Form;
      ASSERT_EQ(M.step().Kind, StepKind::Ok) << Form;
      EXPECT_EQ(M.cpu().readGpr32(REG_EAX), uint32_t(Full)) << Form;
      EXPECT_EQ(M.cpu().flag(EFLAGS_CF), Overflow) << Form;
      EXPECT_EQ(M.cpu().flag(EFLAGS_OF), Overflow) << Form;
    }
  }
}

TEST(MulDivSemantics, WideResults) {
  Rng Rand(5150);
  for (int Iter = 0; Iter != 200; ++Iter) {
    uint32_t A = uint32_t(Rand.next());
    uint32_t B = uint32_t(Rand.next()) | 1; // nonzero divisor

    // mul: edx:eax = eax * ebx.
    {
      Machine M(tinyConfig());
      M.cpu().writeGpr32(REG_EAX, A);
      M.cpu().writeGpr32(REG_EBX, B);
      Operand Ex[1] = {Operand::reg(REG_EBX)};
      Operand Srcs[MaxSrcs], Dsts[MaxDsts];
      unsigned NumSrcs = 0, NumDsts = 0;
      buildCanonicalOperands(OP_mul, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
      uint8_t Buf[MaxInstrLength];
      int Len = encodeInstr(OP_mul, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000,
                            Buf);
      M.mem().writeBlock(0x1000, Buf, unsigned(Len));
      M.cpu().Pc = 0x1000;
      M.step();
      uint64_t Wide = uint64_t(A) * uint64_t(B);
      EXPECT_EQ(M.cpu().readGpr32(REG_EAX), uint32_t(Wide));
      EXPECT_EQ(M.cpu().readGpr32(REG_EDX), uint32_t(Wide >> 32));
      EXPECT_EQ(M.cpu().flag(EFLAGS_CF), (Wide >> 32) != 0);
    }

    // idiv: edx:eax / ebx with cdq-style sign extension.
    {
      Machine M(tinyConfig());
      int32_t Dividend = int32_t(A);
      int32_t Divisor = int32_t(B);
      M.cpu().writeGpr32(REG_EAX, uint32_t(Dividend));
      M.cpu().writeGpr32(REG_EDX, Dividend < 0 ? 0xFFFFFFFFu : 0u);
      M.cpu().writeGpr32(REG_EBX, uint32_t(Divisor));
      Operand Ex[1] = {Operand::reg(REG_EBX)};
      Operand Srcs[MaxSrcs], Dsts[MaxDsts];
      unsigned NumSrcs = 0, NumDsts = 0;
      buildCanonicalOperands(OP_idiv, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
      uint8_t Buf[MaxInstrLength];
      int Len = encodeInstr(OP_idiv, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000,
                            Buf);
      M.mem().writeBlock(0x1000, Buf, unsigned(Len));
      M.cpu().Pc = 0x1000;
      M.step();
      ASSERT_EQ(M.status(), RunStatus::Running);
      EXPECT_EQ(int32_t(M.cpu().readGpr32(REG_EAX)), Dividend / Divisor);
      EXPECT_EQ(int32_t(M.cpu().readGpr32(REG_EDX)), Dividend % Divisor);
    }
  }
}

} // namespace
