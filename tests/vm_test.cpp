//===- tests/vm_test.cpp - Simulated machine tests ---------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Runtime.h"
#include "harness/Experiment.h"
#include "ir/Instr.h"
#include "isa/Encode.h"
#include "isa/Forms.h"
#include "isa/OperandLayout.h"
#include "support/Arena.h"
#include "vm/Syscall.h"

#include <functional>
#include <set>

using namespace rio;
using namespace rio::test;

namespace {

TEST(VmBasic, ExitCode) {
  NativeRun R = runSource(R"(
    main:
      mov ebx, 42
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 42);
  EXPECT_TRUE(R.Output.empty());
}

TEST(VmBasic, PrintInt) {
  NativeRun R = runSource(R"(
    main:
      mov ebx, -123
      mov eax, 2
      int 0x80
      mov ebx, 7
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "-123\n7\n");
}

TEST(VmBasic, WriteSyscall) {
  NativeRun R = runSource(R"(
    msg: .asciz "hello\n"
    main:
      mov ebx, 1
      mov ecx, msg
      mov edx, 6
      mov eax, 4
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "hello\n");
}

TEST(VmBasic, HltExitsCleanly) {
  NativeRun R = runSource(R"(
    main:
      hlt
  )");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(VmArith, AddSubFlags) {
  // 0xFFFFFFFF + 1 = 0 with CF=1 ZF=1; then jb taken.
  NativeRun R = runSource(R"(
    main:
      mov eax, 0xFFFFFFFF
      add eax, 1
      jnb bad
      jnz bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, SignedOverflow) {
  // INT_MAX + 1 overflows: OF set, jo taken.
  NativeRun R = runSource(R"(
    main:
      mov eax, 0x7FFFFFFF
      add eax, 1
      jo good
      mov ebx, 0
      jmp done
    good:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, IncPreservesCarry) {
  // Set CF via cmp (0 < 1), then inc; CF must survive for the jb.
  NativeRun R = runSource(R"(
    main:
      mov ecx, 0
      cmp ecx, 1
      inc ecx
      jb carry_alive
      mov ebx, 0
      jmp done
    carry_alive:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, AddClearsCarryWhereIncWouldNot) {
  // Same as above but with add 1: CF is rewritten (to 0 here).
  NativeRun R = runSource(R"(
    main:
      mov ecx, 0
      cmp ecx, 1
      add ecx, 1
      jb bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, MulDivCdq) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 100000
      mov ecx, 30000
      mul ecx             ; edx:eax = 3,000,000,000
      mov ebx, edx        ; high word -> 0 (3e9 < 2^32)
      mov eax, 2
      int 0x80            ; print 0? no: print ebx... print_int prints ebx
      mov eax, -7
      cdq
      mov ecx, 2
      idiv ecx            ; eax = -3, edx = -1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, edx
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "0\n-3\n-1\n");
}

TEST(VmArith, DivideByZeroFaults) {
  Program P = assembleOrDie(R"(
    main:
      mov eax, 5
      cdq
      mov ecx, 0
      idiv ecx
      hlt
  )");
  NativeRun R = runNative(P);
  EXPECT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_NE(R.FaultReason.find("divide"), std::string::npos);
}

TEST(VmArith, IdivOfMinDividendByMinusOneFaultsCleanly) {
  // EDX:EAX = -2^63 over -1: the quotient 2^63 is out of range, and the
  // host's own INT64_MIN / -1 must not be computed to find that out.
  Program P = assembleOrDie(R"(
    main:
      mov edx, 0x80000000
      mov eax, 0
      mov ecx, -1
      idiv ecx
      hlt
  )");
  Outcome Native = runNativeProgram(P);
  EXPECT_EQ(Native.Status, RunStatus::Faulted);
  EXPECT_EQ(Native.Instructions, 4u);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_NE(R.FaultReason.find("integer divide overflow"), std::string::npos)
      << R.FaultReason;
}

TEST(VmArith, Shifts) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 1
      shl eax, 4          ; 16
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov eax, -32
      sar eax, 2          ; -8
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov eax, 0x80000000
      shr eax, 31         ; 1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ecx, 3
      mov eax, 1
      shl eax, cl         ; 8
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "16\n-8\n1\n8\n");
}

TEST(VmMemory, LoadsStoresAndAddressing) {
  NativeRun R = runSource(R"(
    arr: .word 10 20 30 40
    b:   .byte 0xFF 0x7F
    main:
      mov esi, arr
      mov eax, [esi+4]        ; 20
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ecx, 3
      mov eax, [arr+ecx*4]    ; 40
      mov ebx, eax
      mov eax, 2
      int 0x80
      movzxb eax, [b]         ; 255
      mov ebx, eax
      mov eax, 2
      int 0x80
      movsxb eax, [b]         ; -1
      mov [arr], eax          ; arr[0] = -1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, [arr]
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "20\n40\n255\n-1\n-1\n");
}

TEST(VmMemory, OutOfBoundsFaults) {
  Program P = assembleOrDie(R"(
    main:
      mov eax, [0xFFFFFFF0]
      hlt
  )");
  NativeRun R = runNative(P);
  EXPECT_EQ(R.Status, RunStatus::Faulted);
}

TEST(VmStack, PushPopCallRet) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 5
      call double_it
      mov ebx, eax
      mov eax, 2
      int 0x80          ; 10
      push 33
      pop ebx
      mov eax, 2
      int 0x80          ; 33
      mov ebx, 0
      mov eax, 1
      int 0x80
    double_it:
      add eax, eax
      ret
  )");
  EXPECT_EQ(R.Output, "10\n33\n");
}

TEST(VmStack, RetImmPopsArgs) {
  NativeRun R = runSource(R"(
    main:
      mov edi, esp
      push 7
      push 8
      call take_two
      cmp esp, edi          ; callee popped its args
      jnz bad
      mov ebx, eax
      mov eax, 2
      int 0x80              ; 15
      mov ebx, 0
      mov eax, 1
      int 0x80
    bad:
      mov ebx, 1
      mov eax, 1
      int 0x80
    take_two:
      mov eax, [esp+4]      ; 8
      add eax, [esp+8]      ; +7
      ret 8
  )");
  EXPECT_EQ(R.Output, "15\n");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(VmIndirect, JumpTableAndIndirectCall) {
  NativeRun R = runSource(R"(
    table: .word h0 h1 h2
    main:
      mov esi, 0
    loop:
      mov eax, esi
      call [table+eax*4]
      mov ebx, eax
      mov eax, 2
      int 0x80
      inc esi
      cmp esi, 3
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    h0:
      mov eax, 100
      ret
    h1:
      mov eax, 200
      ret
    h2:
      mov eax, 300
      ret
  )");
  EXPECT_EQ(R.Output, "100\n200\n300\n");
}

TEST(VmFp, ScalarDoubleArithmetic) {
  NativeRun R = runSource(R"(
    vals: .f64 1.5 2.25
    main:
      movsd xmm0, [vals]
      movsd xmm1, [vals+8]
      addsd xmm0, xmm1          ; 3.75
      mulsd xmm0, xmm1          ; 8.4375
      mov eax, 4
      cvtsi2sd xmm2, eax        ; 4.0
      mulsd xmm0, xmm2          ; 33.75
      cvttsd2si ebx, xmm0       ; 33
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "33\n");
}

TEST(VmFp, UcomisdComparison) {
  NativeRun R = runSource(R"(
    vals: .f64 1.0 2.0
    main:
      movsd xmm0, [vals]
      movsd xmm1, [vals+8]
      ucomisd xmm0, xmm1
      jb less                   ; 1.0 < 2.0: CF set
      mov ebx, 0
      jmp done
    less:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmFlags, SavefRestfRoundTrip) {
  NativeRun R = runSource(R"(
    slot: .word 0
    main:
      mov eax, 0xFFFFFFFF
      add eax, 1            ; CF=1 ZF=1
      savef [slot]
      mov eax, 5
      add eax, 5            ; clobbers flags (CF=0 ZF=0)
      restf [slot]
      jnb bad               ; CF must be restored to 1
      jnz bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmCost, LoopCostScalesLinearly) {
  auto TimeFor = [](int N) {
    Program P = assembleOrDie(
        "main:\n mov ecx, " + std::to_string(N) + "\nloop:\n dec ecx\n jnz loop\n hlt\n");
    return runNative(P).Cycles;
  };
  uint64_t C1 = TimeFor(1000);
  uint64_t C2 = TimeFor(2000);
  // Roughly double (predictor warmup makes it slightly sublinear).
  EXPECT_GT(C2, C1 + (C1 / 2));
  EXPECT_LT(C2, C1 * 5 / 2);
}

TEST(VmCost, MispredictionCostsShow) {
  // A data-dependent unpredictable branch pattern costs more than a
  // perfectly biased one with identical instruction counts.
  auto Run = [](const char *Sel) {
    std::string Src = R"(
    main:
      mov esi, 12345        ; lcg state
      mov edi, 0            ; counter
      mov ecx, 20000
    loop:
      imul esi, esi, 1103515245
      add esi, 12345
      mov eax, esi
      shr eax, )";
    Src += Sel;
    Src += R"(
      test eax, 1
      jz skip
      inc edi
    skip:
      dec ecx
      jnz loop
      hlt
  )";
    return runNative(assembleOrDie(Src)).Cycles;
  };
  uint64_t Random = Run("16");  // low-entropy-free bit: unpredictable
  uint64_t Biased = Run("31");  // sign bit of LCG: also varies... use 0
  (void)Biased;
  uint64_t AlwaysZero = Run("1");
  (void)AlwaysZero;
  // The unpredictable variant must be measurably slower than at least one
  // of the biased ones.
  EXPECT_GT(Random, std::min(Biased, AlwaysZero));
}

TEST(VmCost, P3vsP4IncCost) {
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 10000
    loop:
      inc eax
      inc eax
      inc eax
      inc eax
      dec ecx
      jnz loop
      hlt
  )");
  MachineConfig P4;
  P4.Cost = CostModel::pentiumIV();
  MachineConfig P3;
  P3.Cost = CostModel::pentiumIII();
  uint64_t CyclesP4 = runNative(P, P4).Cycles;
  uint64_t CyclesP3 = runNative(P, P3).Cycles;
  EXPECT_GT(CyclesP4, CyclesP3) << "inc must be slower on the P4 model";
}

TEST(VmDeterminism, SameProgramSameCycles) {
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 5000
      mov eax, 0
    loop:
      add eax, ecx
      dec ecx
      jnz loop
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
  NativeRun A = runNative(P);
  NativeRun B = runNative(P);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.ExitCode, int(5000 * 5001 / 2));
}

} // namespace

namespace {

TEST(Predictors, TwoBitCounterHysteresis) {
  BranchPredictors P;
  AppPc Pc = 0x1000;
  // Initial state is weakly not-taken: the first taken branch mispredicts.
  EXPECT_FALSE(P.predictCond(Pc, true));
  // One taken -> strongly-enough taken to predict the next correctly.
  EXPECT_TRUE(P.predictCond(Pc, true));
  EXPECT_TRUE(P.predictCond(Pc, true));
  // A single reversal in a taken stream mispredicts once...
  EXPECT_FALSE(P.predictCond(Pc, false));
  // ...but hysteresis keeps predicting taken right after.
  EXPECT_TRUE(P.predictCond(Pc, true));
}

TEST(Predictors, BtbTracksLastTarget) {
  BranchPredictors P;
  AppPc Site = 0x2000;
  EXPECT_FALSE(P.predictIndirect(Site, 0x3000)); // cold
  EXPECT_TRUE(P.predictIndirect(Site, 0x3000));  // repeated target
  EXPECT_FALSE(P.predictIndirect(Site, 0x4000)); // changed target
  EXPECT_TRUE(P.predictIndirect(Site, 0x4000));
}

TEST(Predictors, ReturnStackMatchesCallDepth) {
  BranchPredictors P;
  P.pushReturn(0x1111);
  P.pushReturn(0x2222);
  P.pushReturn(0x3333);
  EXPECT_TRUE(P.popReturn(0x3333));
  EXPECT_TRUE(P.popReturn(0x2222));
  EXPECT_FALSE(P.popReturn(0x9999)); // wrong return address
  EXPECT_FALSE(P.popReturn(0x1111)); // stack already consumed
}

TEST(Predictors, RasOverflowWrapsGracefully) {
  BranchPredictors P;
  for (unsigned I = 0; I != 100; ++I) // deeper than the 64-entry stack
    P.pushReturn(0x1000 + I * 4);
  // The newest 64 still predict correctly.
  for (unsigned I = 99;; --I) {
    bool Hit = P.popReturn(0x1000 + I * 4);
    if (I >= 36) {
      EXPECT_TRUE(Hit) << I;
    }
    if (I == 36)
      break;
  }
}

//===----------------------------------------------------------------------===//
// Decode cache (direct-mapped, generation-invalidated)
//===----------------------------------------------------------------------===//

/// Encodes \p I at \p Pc in \p M's memory; returns the encoded length.
unsigned placeInstr(Machine &M, uint32_t Pc, Instr *I) {
  uint8_t Buf[MaxInstrLength];
  int Len = I->encode(Pc, Buf, false);
  EXPECT_GT(Len, 0);
  EXPECT_TRUE(M.mem().writeBlock(Pc, Buf, unsigned(Len)));
  return unsigned(Len);
}

TEST(VmDecodeCache, AliasingPcsNeverServeWrongDecode) {
  Machine M;
  Arena A(1024);
  // Two pcs exactly DecodeCacheLines apart map to the same cache line.
  uint32_t Pc1 = 0x100;
  uint32_t Pc2 = Pc1 + Machine::DecodeCacheLines;
  placeInstr(M, Pc1, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                    Operand::imm(111, 4)}));
  placeInstr(M, Pc2, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EBX),
                                                    Operand::imm(222, 4)}));

  const PredecodedInstr *D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->Op, OP_mov);
  EXPECT_EQ(D1->Src[0].Value, 111u);

  // The aliasing pc evicts Pc1's line but must decode its own bytes.
  const PredecodedInstr *D2 = M.fetchDecode(Pc2);
  ASSERT_NE(D2, nullptr);
  EXPECT_EQ(D2->Src[0].Value, 222u);
  EXPECT_EQ(D2->Dst[0].K, PredecodedOp::Gpr);
  EXPECT_EQ(D2->Dst[0].Reg, REG_EBX - REG_EAX);

  // Ping-pong: refilling after eviction still yields the right decode.
  D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->Src[0].Value, 111u);
  EXPECT_EQ(D1->Dst[0].K, PredecodedOp::Gpr);
  EXPECT_EQ(D1->Dst[0].Reg, REG_EAX - REG_EAX);
}

TEST(VmDecodeCache, RangeInvalidationDropsStaleDecode) {
  Machine M;
  Arena A(1024);
  uint32_t Pc = 0x200;
  unsigned Len = placeInstr(
      M, Pc,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
  const PredecodedInstr *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Src[0].Value, 1u);

  // Overwrite the bytes and invalidate: the next fetch must re-decode.
  placeInstr(M, Pc, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                   Operand::imm(2, 4)}));
  M.invalidateDecodeRange(Pc, Pc + Len);
  D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Src[0].Value, 2u);
}

TEST(VmDecodeCache, InvalidationOfOneLineSparesAliasedOther) {
  Machine M;
  Arena A(1024);
  // Same decode-cache line, different write-watch lines: invalidating
  // around Pc1 bumps only Pc1's line generation. Pc2's decode, filled
  // afterwards into the shared line, must survive an invalidation aimed
  // at Pc1's range, and Pc1 must re-decode fresh bytes on its next fetch.
  uint32_t Pc1 = 0x300;
  uint32_t Pc2 = Pc1 + Machine::DecodeCacheLines;
  unsigned Len1 = placeInstr(
      M, Pc1,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(10, 4)}));
  placeInstr(M, Pc2, Instr::createSynth(A, OP_mov, {Operand::reg(REG_ECX),
                                                    Operand::imm(20, 4)}));

  ASSERT_NE(M.fetchDecode(Pc1), nullptr);
  placeInstr(M, Pc1, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                    Operand::imm(11, 4)}));
  M.invalidateDecodeRange(Pc1, Pc1 + Len1);

  const PredecodedInstr *D2 = M.fetchDecode(Pc2);
  ASSERT_NE(D2, nullptr);
  EXPECT_EQ(D2->Src[0].Value, 20u);

  const PredecodedInstr *D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->Src[0].Value, 11u);
}

TEST(VmDecodeCache, StoreIntoStraddlingInstrNextLineInvalidates) {
  // `jmp t1` starts 2 bytes before a 256-byte line, so its rel32 reaches
  // into a line holding no other decoded instruction. Bumping the rel32's
  // second byte retargets the jump 256 bytes on, to t2; both runs must
  // see the new bytes.
  Program P = assembleOrDie(R"(
    .entry main
    main:
      mov esi, 0
      jmp stub
    after:
      inc esi
      cmp esi, 2
      jz done
      movzxb eax, [stub+2]
      inc eax
      movb [stub+2], al
      jmp stub
    done:
      mov ebx, 0
      mov eax, 1
      int 0x80
    .align 256
    t1:
      mov ebx, 1
      jmp print
    .align 256
    t2:
      mov ebx, 2
    print:
      mov eax, 2
      int 0x80
      jmp after
    .align 256
    .space 254
    stub:
      jmp t1
  )");
  const AppPc Stub = P.Symbols.at("stub");
  ASSERT_EQ(Stub % Machine::WriteWatchLine, Machine::WriteWatchLine - 2);
  ASSERT_EQ(P.Symbols.at("t2") - P.Symbols.at("t1"), 256u);

  Outcome Native = runNativeProgram(P);
  EXPECT_EQ(Native.Status, RunStatus::Exited);
  EXPECT_EQ(Native.Output, "1\n2\n");

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), "1\n2\n");
}

TEST(VmDecodeCache, OutOfRangePcReturnsNull) {
  Machine M;
  EXPECT_EQ(M.fetchDecode(uint32_t(M.mem().size())), nullptr);
  EXPECT_EQ(M.fetchDecode(~0u), nullptr);
}

//===----------------------------------------------------------------------===//
// Dispatch coverage
//===----------------------------------------------------------------------===//

/// Every form id the decode cache can assign: each byte form of the ISA is
/// encoded over every operand kind its slots admit, placed in memory and
/// decoded, and the record's Form collected.
std::set<unsigned> formsTheDecoderCanProduce() {
  MachineConfig MC;
  MC.AppRegionSize = 64 * 1024;
  MC.RuntimeRegionSize = 64 * 1024;
  Machine M(MC);
  std::set<unsigned> Forms;
  AppPc Pc = 0x1000;
  auto Candidates = [&](Slot S) -> std::vector<Operand> {
    const Operand Mem32 = Operand::mem(REG_ESI, 8, 4);
    switch (S) {
    case Slot::R32:
      return {Operand::reg(REG_EBX)};
    case Slot::R8:
      return {Operand::reg(REG_BL)};
    case Slot::Xmm:
      return {Operand::reg(REG_XMM1)};
    case Slot::Rm32:
      return {Operand::reg(REG_EBX), Mem32};
    case Slot::Rm8:
      return {Operand::reg(REG_BL), Operand::mem(REG_ESI, 8, 1)};
    case Slot::Xm64:
      return {Operand::reg(REG_XMM1), Operand::mem(REG_ESI, 8, 8)};
    case Slot::M16:
      return {Operand::mem(REG_ESI, 8, 2)};
    case Slot::M:
      return {Mem32};
    case Slot::Eax:
      return {Operand::reg(REG_EAX)};
    case Slot::Cl:
      return {Operand::reg(REG_CL)};
    case Slot::Rel8:
    case Slot::Rel32:
      return {Operand::pc(Pc + 16)};
    default: // the immediates, One included
      return {Operand::imm(1, 1), Operand::imm(1, 2), Operand::imm(1, 4),
              Operand::imm(0x12345, 4)};
    }
  };
  for (unsigned Op = OP_INVALID + 1; Op <= OP_LAST; ++Op) {
    for (const rio::Form *F : formsForOpcode(Opcode(Op))) {
      // Every combination of the slots' candidates, odometer style.
      unsigned Pick[MaxExplicit] = {};
      for (bool More = true; More;) {
        Operand Ex[MaxExplicit];
        for (unsigned I = 0; I != F->NumOps; ++I)
          Ex[I] = Candidates(F->Ops[I])[Pick[I]];
        Operand Srcs[MaxSrcs], Dsts[MaxDsts];
        unsigned NumSrcs = 0, NumDsts = 0;
        uint8_t Buf[MaxInstrLength];
        int Len = -1;
        if (buildCanonicalOperands(Opcode(Op), Ex, F->NumOps, Srcs, NumSrcs,
                                   Dsts, NumDsts))
          Len = encodeInstr(Opcode(Op), 0, Srcs, NumSrcs, Dsts, NumDsts, Pc,
                            Buf);
        if (Len > 0) {
          EXPECT_TRUE(M.mem().writeBlock(Pc, Buf, unsigned(Len)));
          const PredecodedInstr *R = M.fetchDecode(Pc);
          EXPECT_NE(R, nullptr) << opcodeName(Opcode(Op));
          if (R)
            Forms.insert(R->Form);
          Pc += MaxInstrLength;
        }
        More = false;
        for (unsigned I = 0; I != F->NumOps && !More; ++I) {
          if (++Pick[I] < Candidates(F->Ops[I]).size())
            More = true;
          else
            Pick[I] = 0;
        }
      }
    }
  }
  return Forms;
}

/// VmDispatch's fixed start state: registers, flags, and memory at
/// DispData (words 100 and 0xFFFF8081, the double 4.0, then the address of
/// `target`) and at the stack top DispStack (`target`, then 0xABCD).
constexpr uint32_t DispData = 0x8000, DispStack = 0x8100;
constexpr uint32_t Eax0 = RSYS_print_int, Ebx0 = 0x00FF00F7,
                   Edx0 = 0xFFFFFFFF, Edi0 = 5;
constexpr uint32_t Eflags0 = EFLAGS_CF;

/// What one dispatch line left behind.
struct LineRun {
  Machine &M;
  StepResult Step;
  AppPc After;  ///< the pc following the line
  AppPc Target; ///< the line's branch target
  uint32_t gpr(Register R) const { return M.cpu().readGpr32(R); }
  uint32_t word(uint32_t Addr) const {
    uint32_t V = 0;
    EXPECT_TRUE(M.mem().read32(Addr, V));
    return V;
  }
  double f64(uint32_t Addr) const {
    double V = 0;
    EXPECT_TRUE(M.mem().readF64(Addr, V));
    return V;
  }
  bool flag(uint32_t Bit) const { return M.cpu().flag(Bit); }
};

/// One line per handler of the interpreter: every specialized form and
/// every opcode's generic case. Each runs as a single step from the fixed
/// state; its check names the effect only that handler has. The lines must
/// reach every form id the decoder can produce, so a handler table that
/// drops or misroutes an entry fails here rather than in a workload.
TEST(VmDispatch, EveryHandlerRunsItsInstruction) {
  const uint32_t D = DispData, S = DispStack;
  using Check = std::function<void(const LineRun &)>;
  auto Eq = [](Register R, uint32_t V) -> Check {
    return [=](const LineRun &X) { EXPECT_EQ(X.gpr(R), V); };
  };
  auto Word = [](uint32_t A, uint32_t V) -> Check {
    return [=](const LineRun &X) { EXPECT_EQ(X.word(A), V); };
  };
  auto Xmm0 = [](double V) -> Check {
    return [=](const LineRun &X) { EXPECT_EQ(X.M.cpu().Xmm[0], V); };
  };
  auto Flags = [](bool ZF, bool CF) -> Check {
    return [=](const LineRun &X) {
      EXPECT_EQ(X.flag(EFLAGS_ZF), ZF);
      EXPECT_EQ(X.flag(EFLAGS_CF), CF);
    };
  };
  auto Jumped = [](const LineRun &X) { EXPECT_EQ(X.M.cpu().Pc, X.Target); };
  auto Pushed = [=](uint32_t V) -> Check {
    return [=](const LineRun &X) {
      EXPECT_EQ(X.gpr(REG_ESP), S - 4);
      EXPECT_EQ(X.word(S - 4), V);
    };
  };
  const int64_t Dividend = int64_t((uint64_t(Edx0) << 32) | Eax0);
  const struct {
    const char *Line;
    Check Effect;
  } Lines[] = {
      // Specialized forms.
      {"mov eax, ebx", Eq(REG_EAX, Ebx0)},
      {"mov eax, 0x1234", Eq(REG_EAX, 0x1234)},
      {"mov eax, [esi+4]", Eq(REG_EAX, 0xFFFF8081)},
      {"mov [esi], ebx", Word(D, Ebx0)},
      {"mov [esi], 0x55", Word(D, 0x55)},
      {"add eax, ebx", Eq(REG_EAX, Eax0 + Ebx0)},
      {"add eax, 40", Eq(REG_EAX, Eax0 + 40)},
      {"sub eax, ebx", Eq(REG_EAX, Eax0 - Ebx0)},
      {"sub eax, 1", Eq(REG_EAX, Eax0 - 1)},
      {"and edx, ebx", Eq(REG_EDX, Edx0 & Ebx0)},
      {"and edx, 0xF0", Eq(REG_EDX, Edx0 & 0xF0)},
      {"or eax, ebx", Eq(REG_EAX, Eax0 | Ebx0)},
      {"or eax, 0x100", Eq(REG_EAX, Eax0 | 0x100)},
      {"xor eax, ebx", Eq(REG_EAX, Eax0 ^ Ebx0)},
      {"xor eax, 3", Eq(REG_EAX, Eax0 ^ 3)},
      {"cmp ebx, ebx", Flags(true, false)},
      {"cmp eax, 2", Flags(Eax0 == 2, Eax0 < 2)},
      {"test eax, eax", Flags(false, false)},
      {"test eax, 1", Flags((Eax0 & 1) == 0, false)},
      {"shl eax, 3", Eq(REG_EAX, Eax0 << 3)},
      {"shr ebx, 4", Eq(REG_EBX, Ebx0 >> 4)},
      {"inc eax",
       [](const LineRun &X) {
         EXPECT_EQ(X.gpr(REG_EAX), Eax0 + 1);
         EXPECT_TRUE(X.flag(EFLAGS_CF)) << "inc keeps CF";
       }},
      {"dec eax", Eq(REG_EAX, Eax0 - 1)},
      {"imul eax, ebx, 3", Eq(REG_EAX, Ebx0 * 3)},
      {"jb target", Jumped},
      {"jmp target", Jumped},
      {"jecxz target", Jumped},
      {"movzxb eax, [esi+4]", Eq(REG_EAX, 0x81)},
      {"lea eax, [esi+edi*2+8]", Eq(REG_EAX, D + Edi0 * 2 + 8)},
      {"push ebx", Pushed(Ebx0)},
      {"push 9", Pushed(9)},
      {"pop eax",
       [=](const LineRun &X) {
         EXPECT_EQ(X.gpr(REG_EAX), X.Target);
         EXPECT_EQ(X.gpr(REG_ESP), S + 4);
       }},
      {"movsd xmm0, xmm1", Xmm0(2.25)},
      {"movsd xmm0, [esi+8]", Xmm0(4.0)},
      {"movsd [esi+8], xmm1",
       [=](const LineRun &X) { EXPECT_EQ(X.f64(D + 8), 2.25); }},
      {"addsd xmm0, xmm1", Xmm0(1.5 + 2.25)},
      {"addsd xmm0, [esi+8]", Xmm0(1.5 + 4.0)},
      {"mulsd xmm0, xmm1", Xmm0(1.5 * 2.25)},
      {"mulsd xmm0, [esi+8]", Xmm0(1.5 * 4.0)},

      // Generic cases, one per opcode.
      {"movb al, bl", Eq(REG_EAX, (Eax0 & ~0xFFu) | (Ebx0 & 0xFF))},
      {"movzxb eax, bl", Eq(REG_EAX, Ebx0 & 0xFF)},
      {"movsxb eax, bl", Eq(REG_EAX, uint32_t(int32_t(int8_t(Ebx0))))},
      {"movzxw eax, [esi+4]", Eq(REG_EAX, 0x8081)},
      {"movsxw eax, [esi+4]", Eq(REG_EAX, 0xFFFF8081)},
      {"xchg eax, ebx",
       [](const LineRun &X) {
         EXPECT_EQ(X.gpr(REG_EAX), Ebx0);
         EXPECT_EQ(X.gpr(REG_EBX), Eax0);
       }},
      {"push [esi]", Pushed(100)},
      {"pop [esi+20]",
       [=](const LineRun &X) {
         EXPECT_EQ(X.word(D + 20), X.Target);
         EXPECT_EQ(X.gpr(REG_ESP), S + 4);
       }},
      {"add [esi], ebx", Word(D, 100 + Ebx0)},
      {"adc eax, ebx", Eq(REG_EAX, Eax0 + Ebx0 + 1)},
      {"sub [esi], ebx", Word(D, 100 - Ebx0)},
      {"sbb eax, ebx", Eq(REG_EAX, Eax0 - Ebx0 - 1)},
      {"cmp [esi], 100", Flags(true, false)},
      {"and [esi], 0x0F", Word(D, 100 & 0x0F)},
      {"or [esi], 1", Word(D, 100 | 1)},
      {"xor [esi], ebx", Word(D, 100 ^ Ebx0)},
      {"test [esi], ebx", Flags((100 & Ebx0) == 0, false)},
      {"inc [esi]", Word(D, 101)},
      {"dec [esi]", Word(D, 99)},
      {"neg eax", Eq(REG_EAX, 0 - Eax0)},
      {"not eax", Eq(REG_EAX, ~Eax0)},
      {"imul eax, ebx", Eq(REG_EAX, Eax0 * Ebx0)},
      {"mul ebx",
       [](const LineRun &X) {
         const uint64_t P = uint64_t(Eax0) * Ebx0;
         EXPECT_EQ(X.gpr(REG_EAX), uint32_t(P));
         EXPECT_EQ(X.gpr(REG_EDX), uint32_t(P >> 32));
       }},
      {"idiv edi",
       [=](const LineRun &X) {
         EXPECT_EQ(X.gpr(REG_EAX), uint32_t(int32_t(Dividend / Edi0)));
         EXPECT_EQ(X.gpr(REG_EDX), uint32_t(int32_t(Dividend % Edi0)));
       }},
      {"cdq", Eq(REG_EDX, int32_t(Eax0) < 0 ? 0xFFFFFFFFu : 0u)},
      {"shl [esi], 2", Word(D, 100 << 2)},
      {"shr [esi], 1", Word(D, 100 >> 1)},
      {"sar [esi+4], 4", Word(D + 4, 0xFFFFF808)},
      {"jmp [esi+16]", Jumped},
      {"call target",
       [=](const LineRun &X) {
         EXPECT_EQ(X.M.cpu().Pc, X.Target);
         EXPECT_EQ(X.word(S - 4), X.After);
       }},
      {"call [esi+16]",
       [=](const LineRun &X) {
         EXPECT_EQ(X.M.cpu().Pc, X.Target);
         EXPECT_EQ(X.word(S - 4), X.After);
       }},
      {"ret",
       [=](const LineRun &X) {
         EXPECT_EQ(X.M.cpu().Pc, X.Target);
         EXPECT_EQ(X.gpr(REG_ESP), S + 4);
       }},
      {"ret 8",
       [=](const LineRun &X) {
         EXPECT_EQ(X.M.cpu().Pc, X.Target);
         EXPECT_EQ(X.gpr(REG_ESP), S + 12);
       }},
      {"int 0x80",
       [](const LineRun &X) {
         EXPECT_EQ(X.M.output(), std::to_string(int32_t(Ebx0)) + "\n");
         EXPECT_EQ(X.M.cpu().Pc, X.After);
       }},
      {"hlt",
       [](const LineRun &X) {
         EXPECT_EQ(X.Step.Kind, StepKind::Exited);
         EXPECT_EQ(X.M.status(), RunStatus::Exited);
       }},
      {"nop", [](const LineRun &X) { EXPECT_EQ(X.M.cpu().Pc, X.After); }},
      {"subsd xmm0, xmm1", Xmm0(1.5 - 2.25)},
      {"divsd xmm0, xmm1", Xmm0(1.5 / 2.25)},
      {"ucomisd xmm1, xmm0", Flags(false, false)},
      {"cvtsi2sd xmm0, ebx", Xmm0(double(int32_t(Ebx0)))},
      {"cvttsd2si eax, xmm2", Eq(REG_EAX, uint32_t(-7))},
      {"clientcall 5",
       [](const LineRun &X) {
         EXPECT_EQ(X.Step.Kind, StepKind::ClientCall);
         EXPECT_EQ(X.Step.ClientCallId, 5u);
         EXPECT_EQ(X.M.cpu().Pc, X.After);
       }},
      {"savef [esi+24]", Word(D + 24, Eflags0)},
      {"restf [esi]",
       [](const LineRun &X) { EXPECT_EQ(X.M.cpu().Eflags, 100u); }},
  };

  MachineConfig MC;
  MC.AppRegionSize = 64 * 1024;
  MC.RuntimeRegionSize = 64 * 1024;
  std::set<unsigned> Covered;
  for (const auto &L : Lines) {
    SCOPED_TRACE(L.Line);
    Program P = assembleOrDie(std::string("main:\n  ") + L.Line +
                              "\nafter:\n  hlt\ntarget:\n  hlt\n");
    Machine M(MC);
    ASSERT_TRUE(loadProgram(M, P));
    const AppPc Target = P.symbol("target");
    CpuState &C = M.cpu();
    C.writeGpr32(REG_EAX, Eax0);
    C.writeGpr32(REG_EBX, Ebx0);
    C.writeGpr32(REG_ECX, 0);
    C.writeGpr32(REG_EDX, Edx0);
    C.writeGpr32(REG_ESI, D);
    C.writeGpr32(REG_EDI, Edi0);
    C.writeGpr32(REG_ESP, S);
    C.Xmm[0] = 1.5;
    C.Xmm[1] = 2.25;
    C.Xmm[2] = -7.75;
    C.Eflags = Eflags0;
    ASSERT_TRUE(M.mem().write32(D, 100) && M.mem().write32(D + 4, 0xFFFF8081) &&
                M.mem().writeF64(D + 8, 4.0) &&
                M.mem().write32(D + 16, Target) && M.mem().write32(S, Target) &&
                M.mem().write32(S + 4, 0xABCD));

    const PredecodedInstr *R = M.fetchDecode(C.Pc);
    ASSERT_NE(R, nullptr);
    Covered.insert(R->Form);
    LineRun X{M, M.step(), P.symbol("after"), Target};
    EXPECT_NE(M.status(), RunStatus::Faulted) << M.faultReason();
    EXPECT_EQ(M.faultReason().find("executed invalid opcode"),
              std::string::npos);
    EXPECT_EQ(M.instructionsExecuted(), 1u);
    L.Effect(X);
  }
  const std::set<unsigned> Reachable = formsTheDecoderCanProduce();
  for (unsigned F : Reachable)
    EXPECT_TRUE(Covered.count(F)) << "no line runs form " << F;
  EXPECT_EQ(Covered, Reachable);
}

} // namespace
