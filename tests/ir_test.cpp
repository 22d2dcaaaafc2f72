//===- tests/ir_test.cpp - Instr/InstrList/Emit/Analysis tests ----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "ir/Build.h"
#include "ir/Emit.h"
#include "ir/Print.h"
#include "isa/Encode.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

using namespace rio;

namespace {

/// Encodes a small instruction into a buffer for lifting tests.
unsigned emit(uint8_t *Buf, Opcode Op, std::initializer_list<Operand> Ex,
              AppPc Pc) {
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  Operand ExArr[MaxExplicit];
  unsigned NumEx = 0;
  for (const Operand &O : Ex)
    ExArr[NumEx++] = O;
  EXPECT_TRUE(
      buildCanonicalOperands(Op, ExArr, NumEx, Srcs, NumSrcs, Dsts, NumDsts));
  int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, Pc, Buf);
  EXPECT_GT(Len, 0);
  return unsigned(Len);
}

TEST(InstrLevels, AutomaticUpgrades) {
  // mov eax, [esi+0xc] raw bytes.
  uint8_t Buf[MaxInstrLength];
  unsigned Len = emit(Buf, OP_mov,
                      {Operand::reg(REG_EAX), Operand::mem(REG_ESI, 0xC, 4)},
                      0x1000);
  Arena A;
  Instr *I = Instr::createRaw(A, Buf, Len, 0x1000);
  EXPECT_EQ(I->level(), Instr::Level::Raw);

  // Asking for the opcode performs a Level 2 decode.
  EXPECT_EQ(I->getOpcode(), OP_mov);
  EXPECT_EQ(I->level(), Instr::Level::OpcodeKnown);
  EXPECT_EQ(I->getEflags(), 0u);

  // Asking for operands performs a full decode; raw bits stay valid.
  EXPECT_EQ(I->numSrcs(), 1u);
  EXPECT_TRUE(I->getSrc(0).isMem());
  EXPECT_EQ(I->level(), Instr::Level::Decoded);
  EXPECT_TRUE(I->rawBitsValid());

  // Mutation invalidates the raw bits: Level 4.
  I->setSrc(0, Operand::mem(REG_ESI, 0x10, 4));
  EXPECT_EQ(I->level(), Instr::Level::Synth);
  EXPECT_FALSE(I->rawBitsValid());

  // The re-encoded form reflects the new operand.
  uint8_t Out[MaxInstrLength];
  int NewLen = I->encode(0x1000, Out, true);
  ASSERT_GT(NewLen, 0);
  DecodedInstr DI;
  ASSERT_TRUE(decodeInstr(Out, unsigned(NewLen), 0x1000, DI));
  EXPECT_EQ(DI.Srcs[0].getDisp(), 0x10);
}

TEST(InstrLevels, SkippingLevelsCostsOneSwitch) {
  uint8_t Buf[MaxInstrLength];
  unsigned Len = emit(Buf, OP_add,
                      {Operand::reg(REG_EAX), Operand::imm(5, 4)}, 0);
  Arena A;
  Instr *I = Instr::createRaw(A, Buf, Len, 0);
  // Jump straight from Level 1 to Level 3.
  EXPECT_EQ(I->numSrcs(), 2u);
  EXPECT_EQ(I->level(), Instr::Level::Decoded);
}

TEST(InstrLevels, SynthRefinesShiftFlags) {
  Arena A;
  Instr *ByImm = Instr::createSynth(
      A, OP_shl, {Operand::reg(REG_EAX), Operand::imm(3, 1)});
  ASSERT_NE(ByImm, nullptr);
  EXPECT_EQ(ByImm->getEflags(), uint32_t(EFLAGS_WRITE_ARITH));
  Instr *ByCl = Instr::createSynth(
      A, OP_shl, {Operand::reg(REG_EAX), Operand::reg(REG_CL)});
  ASSERT_NE(ByCl, nullptr);
  EXPECT_EQ(ByCl->getEflags(), uint32_t(EFLAGS_READ_ALL | EFLAGS_WRITE_ALL));
}

TEST(InstrList, BasicMutation) {
  Arena A;
  InstrList IL(A);
  Instr *I1 = Instr::createSynth(A, OP_nop, {});
  Instr *I2 = Instr::createSynth(A, OP_nop, {});
  Instr *I3 = Instr::createSynth(A, OP_nop, {});
  IL.append(I1);
  IL.append(I3);
  IL.insertAfter(I1, I2);
  EXPECT_EQ(IL.size(), 3u);
  EXPECT_EQ(IL.first(), I1);
  EXPECT_EQ(I1->next(), I2);
  EXPECT_EQ(I2->next(), I3);
  EXPECT_EQ(IL.last(), I3);
  EXPECT_EQ(I3->prev(), I2);

  IL.remove(I2);
  EXPECT_EQ(IL.size(), 2u);
  EXPECT_EQ(I1->next(), I3);

  Instr *I4 = Instr::createSynth(A, OP_cdq, {});
  IL.replace(I1, I4);
  EXPECT_EQ(IL.first(), I4);
  EXPECT_EQ(IL.size(), 2u);

  InstrList Other(A);
  Other.append(Instr::createSynth(A, OP_nop, {}));
  IL.splice(Other);
  EXPECT_EQ(IL.size(), 3u);
  EXPECT_TRUE(Other.empty());
}

TEST(Emit, LabelsResolveForwardAndBackward) {
  Arena A;
  InstrList IL(A);
  // top: dec eax ; jnz top ; jmp end ; <nop> ; end:
  Instr *Top = Instr::createLabel(A);
  IL.append(Top);
  IL.append(Instr::createSynth(A, OP_dec, {Operand::reg(REG_EAX)}));
  Instr *Jnz = Instr::createSynth(A, OP_jnz, {Operand::pc(0)});
  Jnz->setBranchTargetLabel(Top);
  IL.append(Jnz);
  Instr *End = Instr::createLabel(A);
  Instr *Jmp = Instr::createSynth(A, OP_jmp, {Operand::pc(0)});
  Jmp->setBranchTargetLabel(End);
  IL.append(Jmp);
  IL.append(Instr::createSynth(A, OP_nop, {}));
  IL.append(End);

  uint8_t Out[256];
  EmitResult Res;
  ASSERT_TRUE(layoutInstrList(IL, 0x2000, true, Res));
  ASSERT_LE(Res.TotalSize, sizeof(Out));
  ASSERT_TRUE(writeInstrList(Res, 0x2000, Out));

  // Verify by decoding: the jnz targets 0x2000 and the jmp targets the end.
  DecodedInstr DI;
  ASSERT_EQ(Res.Instrs[2], Jnz);
  unsigned JnzOff = Res.Offsets[2];
  ASSERT_TRUE(decodeInstr(Out + JnzOff, Res.TotalSize - JnzOff,
                          0x2000 + JnzOff, DI));
  EXPECT_EQ(DI.Op, OP_jnz);
  EXPECT_EQ(DI.Srcs[0].getPc(), 0x2000u);
  ASSERT_EQ(Res.Instrs[3], Jmp);
  unsigned JmpOff = Res.Offsets[3];
  ASSERT_TRUE(decodeInstr(Out + JmpOff, Res.TotalSize - JmpOff,
                          0x2000 + JmpOff, DI));
  EXPECT_EQ(DI.Op, OP_jmp);
  EXPECT_EQ(DI.Srcs[0].getPc(), 0x2000u + Res.TotalSize);
}

TEST(Emit, ShortBranchPolicy) {
  Arena A;
  InstrList IL(A);
  Instr *End = Instr::createLabel(A);
  Instr *Jmp = Instr::createSynth(A, OP_jmp, {Operand::pc(0)});
  Jmp->setBranchTargetLabel(End);
  IL.append(Jmp);
  IL.append(Instr::createSynth(A, OP_nop, {}));
  IL.append(End);

  EmitResult Short, Near;
  ASSERT_TRUE(layoutInstrList(IL, 0x1000, true, Short));
  ASSERT_TRUE(layoutInstrList(IL, 0x1000, false, Near));
  EXPECT_LT(Short.TotalSize, Near.TotalSize); // rel8 vs forced rel32
}

TEST(Emit, RelocatedRawCtiIsReencoded) {
  // A direct branch lifted from one address and emitted at another must be
  // re-encoded so its target stays put.
  uint8_t Buf[MaxInstrLength];
  unsigned Len = emit(Buf, OP_jmp, {Operand::pc(0x1100)}, 0x1000);
  Arena A;
  DecodedInstr DI;
  ASSERT_TRUE(decodeInstr(Buf, Len, 0x1000, DI));
  InstrList IL(A);
  IL.append(Instr::createDecoded(A, DI, Buf, 0x1000));

  uint8_t Out[64];
  EmitResult Res;
  ASSERT_TRUE(layoutInstrList(IL, 0x5000, false, Res));
  ASSERT_LE(Res.TotalSize, sizeof(Out));
  ASSERT_TRUE(writeInstrList(Res, 0x5000, Out));
  DecodedInstr DI2;
  ASSERT_TRUE(decodeInstr(Out, Res.TotalSize, 0x5000, DI2));
  EXPECT_EQ(DI2.Srcs[0].getPc(), 0x1100u) << "target must survive relocation";
}

TEST(Emit, JecxzOverLongGapFails) {
  // jecxz to a label more than 127 bytes away cannot encode.
  Arena A;
  InstrList IL(A);
  Instr *End = Instr::createLabel(A);
  Instr *J = Instr::createSynth(A, OP_jecxz, {Operand::pc(0)});
  J->setBranchTargetLabel(End);
  IL.append(J);
  for (int K = 0; K != 40; ++K) // 40 x 5-byte instructions = 200 bytes
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::reg(REG_EAX), Operand::imm(K, 4)}));
  IL.append(End);
  EmitResult Res;
  EXPECT_FALSE(layoutInstrList(IL, 0x1000, false, Res));
}

/// Branch \p Op to \p Label.
Instr *branchTo(Arena &A, Opcode Op, Instr *Label) {
  Instr *I = Instr::createSynth(A, Op, {Operand::pc(0)});
  I->setBranchTargetLabel(Label);
  return I;
}

/// Labels reached forward and backward, plus exits to application pcs.
void labelsList(Arena &A, InstrList &IL) {
  Instr *Top = Instr::createLabel(A), *End = Instr::createLabel(A);
  IL.append(Top);
  IL.append(Instr::createSynth(A, OP_mov,
                               {Operand::reg(REG_EAX), Operand::imm(7, 4)}));
  IL.append(Instr::createSynth(A, OP_dec, {Operand::reg(REG_EAX)}));
  IL.append(branchTo(A, OP_jnz, Top));
  IL.append(Instr::createSynth(A, OP_jz, {Operand::pc(0x1234)}));
  IL.append(branchTo(A, OP_jmp, End));
  IL.append(Instr::createSynth(A, OP_add,
                               {Operand::reg(REG_EBX), Operand::imm(3, 4)}));
  IL.append(End);
  IL.append(Instr::createSynth(A, OP_jmp, {Operand::pc(0x2000)}));
}

/// A lifted block (bundle + relocated jnz), then the runtime's jecxz
/// trampoline shape and an inline indirect-branch check.
void jecxzList(Arena &A, InstrList &IL, uint8_t *Code) {
  unsigned Off = 0;
  Off += emit(Code + Off, OP_add, {Operand::reg(REG_EAX), Operand::imm(1, 4)},
              0x1000 + Off);
  Off += emit(Code + Off, OP_sub, {Operand::reg(REG_EBX), Operand::imm(2, 4)},
              0x1000 + Off);
  Off += emit(Code + Off, OP_jnz, {Operand::pc(0x1000)}, 0x1000 + Off);
  ASSERT_TRUE(liftBlock(IL, Code, Off, 0x1000, 0x1000, 64,
                        LiftLevel::Bundle0));
  Operand Ecx = Operand::reg(REG_ECX), Slot = Operand::memAbs(0x00F00014, 4);
  Instr *L = Instr::createLabel(A), *F = Instr::createLabel(A),
        *M = Instr::createLabel(A);
  IL.append(branchTo(A, OP_jecxz, L));
  IL.append(branchTo(A, OP_jmp, F));
  IL.append(L);
  IL.append(Instr::createSynth(A, OP_jmp, {Operand::pc(0x3000)}));
  IL.append(F);
  IL.append(Instr::createSynth(A, OP_mov, {Ecx, Operand::mem(REG_ESI, 4, 4)}));
  IL.append(Instr::createSynth(A, OP_lea,
                               {Ecx, Operand::mem(REG_ECX, -0x4000, 4)}));
  IL.append(branchTo(A, OP_jecxz, M));
  IL.append(Instr::createSynth(A, OP_lea,
                               {Ecx, Operand::mem(REG_ECX, 0x4000, 4)}));
  IL.append(Instr::createSynth(A, OP_mov, {Slot, Ecx}));
  IL.append(Instr::createSynth(A, OP_jmp_ind, {Slot}));
  IL.append(M);
  IL.append(Instr::createSynth(A, OP_mov,
                               {Ecx, Operand::memAbs(0x00F00024, 4)}));
  IL.append(Instr::createSynth(A, OP_jmp, {Operand::pc(0x4000)}));
}

/// A client custom exit stub: counts the exit, then continues.
void customStubList(Arena &A, InstrList &IL) {
  IL.append(Instr::createSynth(A, OP_inc, {Operand::memAbs(0x00F00040, 4)}));
  IL.append(Instr::createSynth(
      A, OP_mov, {Operand::memAbs(0x00F00044, 4), Operand::reg(REG_EAX)}));
  IL.append(Instr::createSynth(
      A, OP_add, {Operand::memAbs(0x00F00048, 4), Operand::imm(5, 4)}));
}

uint64_t fnv1a(const uint8_t *P, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ull;
  return H;
}

/// What emitting each list at 0xC01234 gave when every emission re-ran the
/// layout at its base and offsets were found by scanning the list.
struct RecordedEmission {
  const char *Name;
  unsigned Size;
  uint64_t Hash;
  std::vector<unsigned> Offsets;
};

const RecordedEmission Recorded[] = {
    {"labels", 31, 0x8f7432682afba3eull, {0, 0, 5, 6, 12, 18, 23, 26, 26}},
    {"jecxz",
     64,
     0x2680039651e25332ull,
     {0, 6, 12, 14, 19, 19, 24, 24, 27, 33, 35, 41, 47, 53, 53, 59}},
    {"custom", 19, 0xe0f27f492d8b9366ull, {0, 6, 12}},
};

void buildList(size_t Idx, Arena &A, InstrList &IL, uint8_t *Code) {
  if (Idx == 0)
    labelsList(A, IL);
  else if (Idx == 1)
    jecxzList(A, IL, Code);
  else
    customStubList(A, IL);
}

TEST(Emit, LayoutAtOneBaseWritesAnotherLikeAFreshLayout) {
  // The runtime lays a list out before it has cache space and writes it at
  // the base it gets. Without short branches that must give the bytes a
  // layout made at the final base gives, and the bytes recorded above.
  constexpr AppPc Base = 0x00C01234;
  for (size_t Idx = 0; Idx != std::size(Recorded); ++Idx) {
    Arena A;
    InstrList IL(A);
    uint8_t Code[64];
    buildList(Idx, A, IL, Code);
    EmitResult Early, Fresh;
    ASSERT_TRUE(layoutInstrList(IL, 0x7F000000, false, Early));
    ASSERT_TRUE(layoutInstrList(IL, Base, false, Fresh));
    ASSERT_EQ(Early.TotalSize, Recorded[Idx].Size) << Recorded[Idx].Name;
    ASSERT_EQ(Fresh.TotalSize, Recorded[Idx].Size) << Recorded[Idx].Name;
    std::vector<uint8_t> A1(Early.TotalSize), A2(Fresh.TotalSize);
    ASSERT_TRUE(writeInstrList(Early, Base, A1.data()));
    ASSERT_TRUE(writeInstrList(Fresh, Base, A2.data()));
    EXPECT_EQ(A1, A2) << Recorded[Idx].Name;
    EXPECT_EQ(fnv1a(A1.data(), A1.size()), Recorded[Idx].Hash)
        << Recorded[Idx].Name;
  }
}

TEST(Emit, PositionLookupsMatchRecordedOffsets) {
  for (size_t Idx = 0; Idx != std::size(Recorded); ++Idx) {
    Arena A;
    InstrList IL(A);
    uint8_t Code[64];
    buildList(Idx, A, IL, Code);
    EmitResult L;
    ASSERT_TRUE(layoutInstrList(IL, 0x00C01234, false, L));
    EXPECT_EQ(L.Offsets, Recorded[Idx].Offsets) << Recorded[Idx].Name;
    unsigned Pos = 0;
    for (Instr &I : IL)
      EXPECT_EQ(L.Instrs[Pos++], &I) << Recorded[Idx].Name;
    EXPECT_EQ(Pos, L.Instrs.size());
  }
}

TEST(Build, BundleZeroShape) {
  // A block of straight-line code lifts to exactly bundle + CTI.
  uint8_t Code[64];
  unsigned Off = 0;
  Off += emit(Code + Off, OP_add, {Operand::reg(REG_EAX), Operand::imm(1, 4)},
              0x1000 + Off);
  Off += emit(Code + Off, OP_sub, {Operand::reg(REG_EBX), Operand::imm(2, 4)},
              0x1000 + Off);
  Off += emit(Code + Off, OP_jmp, {Operand::pc(0x1000)}, 0x1000 + Off);

  Arena A;
  InstrList IL(A);
  ASSERT_TRUE(liftBlock(IL, Code, Off, 0x1000, 0x1000, 64,
                        LiftLevel::Bundle0));
  EXPECT_EQ(IL.size(), 2u);
  EXPECT_TRUE(IL.first()->isBundle());
  EXPECT_TRUE(IL.last()->isCti());
  EXPECT_EQ(IL.last()->level(), Instr::Level::Decoded);
}

TEST(Build, ScanStopsAtSyscall) {
  uint8_t Code[64];
  unsigned Off = 0;
  Off += emit(Code + Off, OP_mov, {Operand::reg(REG_EAX), Operand::imm(1, 4)},
              0x1000 + Off);
  Off += emit(Code + Off, OP_int, {Operand::imm(0x80, 1)}, 0x1000 + Off);
  Off += emit(Code + Off, OP_nop, {}, 0x1000 + Off);

  BlockScan Scan;
  ASSERT_TRUE(scanBlock(Code, Off, 0x1000, 0x1000, 64, Scan));
  EXPECT_TRUE(Scan.EndsInSyscall);
  EXPECT_FALSE(Scan.EndsInCti);
  EXPECT_EQ(Scan.NumInstrs, 2u);
}

TEST(Analysis, FlagsLiveness) {
  Arena A;
  InstrList IL(A);
  // add (writes all) -> flags dead before it.
  IL.append(Instr::createSynth(A, OP_mov,
                               {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
  Instr *Add = Instr::createSynth(
      A, OP_add, {Operand::reg(REG_EAX), Operand::imm(1, 4)});
  IL.append(Add);
  EXPECT_FALSE(flagsLiveAt(IL.first()));

  // jz reads ZF before anything writes it -> live.
  InstrList IL2(A);
  IL2.append(Instr::createSynth(A, OP_mov,
                                {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
  Instr *Jz = Instr::createSynth(A, OP_jz, {Operand::pc(0x1000)});
  IL2.append(Jz);
  EXPECT_TRUE(flagsLiveAt(IL2.first()));

  // inc writes everything except CF; a later jb still sees the old CF.
  InstrList IL3(A);
  IL3.append(Instr::createSynth(A, OP_inc, {Operand::reg(REG_EAX)}));
  IL3.append(Instr::createSynth(A, OP_jb, {Operand::pc(0x1000)}));
  EXPECT_TRUE(flagsLiveAt(IL3.first()));

  // Empty continuation: conservative.
  InstrList IL4(A);
  EXPECT_TRUE(flagsLiveAt(IL4.first()));
}

TEST(Analysis, RegisterLiveness) {
  Arena A;
  InstrList IL(A);
  // mov ebx, 1 fully rewrites ebx -> ebx dead at entry.
  IL.append(Instr::createSynth(A, OP_mov,
                               {Operand::reg(REG_EBX), Operand::imm(1, 4)}));
  EXPECT_FALSE(registerLiveAt(IL.first(), REG_EBX));
  // ...but eax is read by nothing and never written: conservative live at
  // the end of the list.
  EXPECT_TRUE(registerLiveAt(IL.first(), REG_EAX));

  InstrList IL2(A);
  // add eax, ebx reads ebx -> live.
  IL2.append(Instr::createSynth(
      A, OP_add, {Operand::reg(REG_EAX), Operand::reg(REG_EBX)}));
  EXPECT_TRUE(registerLiveAt(IL2.first(), REG_EBX));

  InstrList IL3(A);
  // Address computation reads the register too.
  IL3.append(Instr::createSynth(
      A, OP_mov, {Operand::mem(REG_EBX, 0, 4), Operand::imm(7, 4)}));
  EXPECT_TRUE(registerLiveAt(IL3.first(), REG_EBX));
}

TEST(Print, RendersOperandsAndEflags) {
  Arena A;
  Instr *I = Instr::createSynth(
      A, OP_add, {Operand::reg(REG_EAX), Operand::mem(REG_ESI, 0xC, 4)});
  ASSERT_NE(I, nullptr);
  std::string S = instrToString(*I);
  EXPECT_NE(S.find("add"), std::string::npos);
  EXPECT_NE(S.find("0xc(%esi)"), std::string::npos);
  EXPECT_NE(S.find("WCPAZSO"), std::string::npos);
  std::string AsmText = instrToAsm(*I);
  EXPECT_EQ(AsmText, "add %eax, 0xc(%esi)");
}

} // namespace

namespace {

TEST(Emit, FixpointStressManyLabels) {
  // A pathological layout: alternating short-range and far branches over
  // many labels; the emitter's shrink-only fixpoint must converge and
  // produce a consistent, decodable layout.
  Arena A;
  InstrList IL(A);
  std::vector<Instr *> Labels;
  for (int K = 0; K != 40; ++K)
    Labels.push_back(Instr::createLabel(A));

  for (int K = 0; K != 40; ++K) {
    IL.append(Labels[size_t(K)]);
    // A branch to a label ~6 slots ahead (short once settled)...
    if (K + 6 < 40) {
      Instr *J = Instr::createSynth(A, OP_jz, {Operand::pc(0)});
      J->setBranchTargetLabel(Labels[size_t(K + 6)]);
      IL.append(J);
    }
    // ...a branch far backward (always rel32 when K is large)...
    if (K > 0) {
      Instr *J = Instr::createSynth(A, OP_jnz, {Operand::pc(0)});
      J->setBranchTargetLabel(Labels[0]);
      IL.append(J);
    }
    // ...and some filler.
    IL.append(Instr::createSynth(
        A, OP_mov, {Operand::reg(REG_EAX), Operand::imm(K, 4)}));
  }
  uint8_t Out[4096];
  EmitResult Res;
  ASSERT_TRUE(layoutInstrList(IL, 0x4000, true, Res));
  ASSERT_LE(Res.TotalSize, sizeof(Out));
  ASSERT_TRUE(writeInstrList(Res, 0x4000, Out));

  // Every emitted instruction decodes, and every branch lands exactly on
  // an instruction boundary.
  std::set<unsigned> Boundaries;
  unsigned Off = 0;
  while (Off < Res.TotalSize) {
    Boundaries.insert(Off);
    int Len = decodeLength(Out + Off, Res.TotalSize - Off);
    ASSERT_GT(Len, 0) << "undecodable byte at offset " << Off;
    Off += unsigned(Len);
  }
  Off = 0;
  while (Off < Res.TotalSize) {
    DecodedInstr DI;
    ASSERT_TRUE(decodeInstr(Out + Off, Res.TotalSize - Off, 0x4000 + Off, DI));
    if (opcodeIsCondBranch(DI.Op) || DI.Op == OP_jmp) {
      unsigned TargetOff = DI.Srcs[0].getPc() - 0x4000;
      EXPECT_TRUE(Boundaries.count(TargetOff))
          << "branch at " << Off << " targets mid-instruction";
    }
    Off += DI.Length;
  }
}

} // namespace

namespace {

/// Every encodable opcode renders with its own mnemonic in both printing
/// styles (regression net for the printer).
TEST(Print, EveryOpcodeRenders) {
  Arena A;
  struct Case {
    Opcode Op;
    std::initializer_list<Operand> Ex;
  };
  const Operand Eax = Operand::reg(REG_EAX);
  const Operand Ebx = Operand::reg(REG_EBX);
  const Operand Al = Operand::reg(REG_AL);
  const Operand X0 = Operand::reg(REG_XMM0);
  const Operand X1 = Operand::reg(REG_XMM1);
  const Operand M4 = Operand::mem(REG_ESI, 8, 4);
  const Operand M1 = Operand::mem(REG_ESI, 8, 1);
  const Operand M2 = Operand::mem(REG_ESI, 8, 2);
  const Operand M8 = Operand::mem(REG_ESI, 8, 8);
  const Operand I1 = Operand::imm(1, 1);
  const Operand I4 = Operand::imm(7, 4);
  const Operand PC = Operand::pc(0x1234);

  const Case Cases[] = {
      {OP_mov, {Eax, Ebx}},       {OP_mov_b, {Al, M1}},
      {OP_movzx_b, {Eax, Al}},    {OP_movzx_w, {Eax, M2}},
      {OP_movsx_b, {Eax, Al}},    {OP_movsx_w, {Eax, M2}},
      {OP_lea, {Eax, M4}},        {OP_xchg, {Eax, Ebx}},
      {OP_push, {Eax}},           {OP_pop, {Eax}},
      {OP_add, {Eax, I4}},        {OP_or, {Eax, Ebx}},
      {OP_adc, {Eax, Ebx}},       {OP_sbb, {Eax, Ebx}},
      {OP_and, {Eax, Ebx}},       {OP_sub, {Eax, Ebx}},
      {OP_xor, {Eax, Ebx}},       {OP_cmp, {Eax, Ebx}},
      {OP_inc, {Eax}},            {OP_dec, {Eax}},
      {OP_neg, {Eax}},            {OP_not, {Eax}},
      {OP_test, {Eax, Ebx}},      {OP_imul, {Eax, Ebx}},
      {OP_mul, {Ebx}},            {OP_idiv, {Ebx}},
      {OP_cdq, {}},               {OP_shl, {Eax, I1}},
      {OP_shr, {Eax, I1}},        {OP_sar, {Eax, I1}},
      {OP_jmp, {PC}},             {OP_jmp_ind, {Eax}},
      {OP_call, {PC}},            {OP_call_ind, {Eax}},
      {OP_ret, {}},               {OP_ret_imm, {Operand::imm(8, 2)}},
      {OP_jz, {PC}},              {OP_jnle, {PC}},
      {OP_jecxz, {PC}},           {OP_int, {Operand::imm(0x80, 1)}},
      {OP_hlt, {}},               {OP_nop, {}},
      {OP_movsd, {X0, X1}},       {OP_addsd, {X0, M8}},
      {OP_subsd, {X0, X1}},       {OP_mulsd, {X0, X1}},
      {OP_divsd, {X0, X1}},       {OP_ucomisd, {X0, X1}},
      {OP_cvtsi2sd, {X0, Eax}},   {OP_cvttsd2si, {Eax, X0}},
      {OP_clientcall, {I4}},
      {OP_savef, {Operand::memAbs(0x7000, 4)}},
      {OP_restf, {Operand::memAbs(0x7000, 4)}},
  };
  for (const Case &C : Cases) {
    Instr *I = Instr::createSynth(A, C.Op, C.Ex);
    ASSERT_NE(I, nullptr) << opcodeName(C.Op);
    std::string Name = opcodeName(C.Op);
    EXPECT_NE(instrToAsm(*I).find(Name), std::string::npos)
        << "asm view of " << Name;
    EXPECT_NE(instrToString(*I).find(Name), std::string::npos)
        << "detail view of " << Name;
  }
}

} // namespace
