//===- tests/asm_test.cpp - Assembler and disassembler tests ------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "asm/Disasm.h"

using namespace rio;
using namespace rio::test;

namespace {

TEST(Assembler, SymbolsAndDirectives) {
  Program P = assembleOrDie(R"(
    .org 0x2000
    .entry start
    table: .word start 42 start
    bytes: .byte 1 2 3
    msg:   .asciz "hi"
    .align 8
    vals:  .f64 1.5
    start:
      nop
      hlt
  )");
  EXPECT_EQ(P.LoadAddr, 0x2000u);
  EXPECT_EQ(P.Entry, P.symbol("start"));
  EXPECT_NE(P.symbol("table"), 0u);
  // table[0] and table[2] hold the address of start; table[1] holds 42.
  uint32_t W0, W1;
  std::memcpy(&W0, &P.Bytes[P.symbol("table") - P.LoadAddr], 4);
  std::memcpy(&W1, &P.Bytes[P.symbol("table") - P.LoadAddr + 4], 4);
  EXPECT_EQ(W0, P.symbol("start"));
  EXPECT_EQ(W1, 42u);
  // .align 8 aligned vals.
  EXPECT_EQ(P.symbol("vals") % 8, 0u);
  // .asciz added the terminator.
  EXPECT_EQ(P.Bytes[P.symbol("msg") - P.LoadAddr + 2], 0);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  Program P;
  std::string Error;
  EXPECT_FALSE(assemble("main:\n  bogus eax, 1\n  hlt\n", P, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos);
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  EXPECT_FALSE(assemble("main:\n  jmp nowhere\n", P, Error));
  EXPECT_NE(Error.find("undefined"), std::string::npos);

  EXPECT_FALSE(assemble("dup:\ndup:\n  hlt\n", P, Error));
  EXPECT_NE(Error.find("duplicate"), std::string::npos);

  EXPECT_FALSE(assemble("  hlt\n", P, Error)); // no entry symbol 'main'
}

TEST(Assembler, MemoryOperandForms) {
  NativeRun R = runSource(R"(
    data: .word 10 20 30 40
    main:
      mov esi, data
      mov eax, [esi]          ; base
      add eax, [esi+4]        ; base+disp
      mov ecx, 2
      add eax, [esi+ecx*4]    ; base+index*scale
      add eax, [data+12]      ; symbol+disp
      mov ecx, 3
      add eax, [data+ecx*4]   ; symbol+index*scale
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 10 + 20 + 30 + 40 + 40);
}

TEST(Assembler, NegativeAndHexImmediates) {
  NativeRun R = runSource(R"(
    main:
      mov eax, -5
      add eax, 0x10
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(Assembler, IndirectFormsSelectIndirectOpcodes) {
  // jmp/call with non-symbol operands assemble to the indirect opcodes.
  NativeRun R = runSource(R"(
    fp: .word target
    main:
      mov eax, target
      jmp eax
    dead:
      mov ebx, 99
      mov eax, 1
      int 0x80
    target:
      call [fp2]
      mov ebx, esi
      mov eax, 1
      int 0x80
    fp2: .word helper
    helper:
      mov esi, 7
      ret
  )");
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(Assembler, JecxzAssembles) {
  NativeRun R = runSource(R"(
    main:
      mov ecx, 0
      jecxz iszero
      mov ebx, 0
      jmp done
    iszero:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

/// Hostile lines — a bad address register or scale, a value wider than its
/// field, an image too large to allocate — are assembly errors reported on
/// their own line: never a host abort, never a truncated value.
TEST(Assembler, HostileLinesAreRejected) {
  const char *Lines[] = {
      "movb bl, 300",
      "mov ebx, 0x1FFFFFFFF",
      "add ebx, 0x100000000",
      "ret 0x10000",
      "mov eax, [eax*3]",
      "mov eax, [esp*2]",
      "mov eax, [eax+esp]",
      "mov eax, [xmm0]",
      "mov eax, [al]",
      "mov eax, [eax+0x1FFFFFFFF]",
      "mov eax, [eax*99999999999999999999]",
      ".space 99999999999",
      ".align 0x100000002",
      ".org 0x100000000",
      ".byte 300",
      ".word 0x1FFFFFFFF",
      "mov eax, 99999999999999999999999",
      "mov eax, 12abc",
  };
  for (const char *Line : Lines) {
    Program P;
    std::string Error;
    EXPECT_FALSE(assemble(std::string("main:\n  ") + Line + "\n  hlt\n", P,
                          Error))
        << Line;
    EXPECT_NE(Error.find("line 2"), std::string::npos) << Line << ": " << Error;
  }
  // Images past the size bound or the 32-bit address space are refused
  // before the image is allocated.
  const char *Layouts[] = {
      "main:\n  hlt\n  .align 0x2000000\n  .byte 1\n  .align 0x2000000\n"
      "  .byte 1\n  .align 0x2000000\n",
      "main:\n  hlt\n  .org 0xFFFFF000\n  .byte 1\n  .space 0x2000\n  hlt\n",
  };
  for (const char *Source : Layouts) {
    Program P;
    std::string Error;
    EXPECT_FALSE(assemble(Source, P, Error)) << Source;
    EXPECT_NE(Error.find("exceeds"), std::string::npos) << Error;
  }
}

TEST(Disasm, RoundTripsAProgram) {
  Program P = assembleOrDie(R"(
    main:
      mov eax, 1
      add eax, [counter]
      jnz main
      hlt
    counter: .word 5
  )");
  std::string Text = disassembleRange(P.Bytes.data(), P.Bytes.size(),
                                      P.LoadAddr, P.Entry, P.symbol("counter"));
  EXPECT_NE(Text.find("mov %eax, $0x1"), std::string::npos);
  EXPECT_NE(Text.find("add %eax"), std::string::npos);
  EXPECT_NE(Text.find("jnz"), std::string::npos);
  EXPECT_NE(Text.find("hlt"), std::string::npos);
}

TEST(Loader, SetsUpStackAndEntry) {
  Program P = assembleOrDie("main:\n  hlt\n");
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  EXPECT_EQ(M.cpu().Pc, P.Entry);
  uint32_t Esp = M.cpu().readGpr32(REG_ESP);
  EXPECT_EQ(Esp % 16, 0u);
  EXPECT_LT(Esp, M.runtimeBase());
  EXPECT_GT(Esp, M.runtimeBase() - 256);
}

} // namespace
