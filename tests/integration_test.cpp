//===- tests/integration_test.cpp - Random-program transparency fuzzing --------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based end-to-end testing: generate random (but structured and
/// terminating) RIO-32 programs and assert the central transparency
/// invariant — running under any runtime configuration with any client
/// yields exactly the application behaviour (output + exit code) of a
/// native run, deterministically.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "clients/Clients.h"
#include "core/Runtime.h"
#include "support/Rng.h"

#include <string>

using namespace rio;
using namespace rio::test;

namespace {

/// Generates a random structured program:
///   - F leaf-to-root ordered functions (calls go only to higher indices,
///     so there is no unbounded recursion);
///   - each function has arithmetic, memory traffic into a private array,
///     forward if/else diamonds, one bounded counting loop, and calls;
///   - main runs a bounded driver loop, prints a register checksum, and
///     exits 0.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : Rand(Seed) {}

  std::string generate() {
    std::string S = ".entry main\n";
    S += "data: .space 4096\n";
    int NumFuncs = int(Rand.nextInRange(3, 6));
    // A function-pointer table drives indirect calls (exercising call
    // mangling, the IBL, and trace inlining of indirect branches).
    S += "ftab: .word";
    for (int F = 0; F != NumFuncs; ++F)
      S += " func" + std::to_string(F);
    S += "\n";
    NumFtab = NumFuncs;

    S += "main:\n";
    S += "  mov esi, " + std::to_string(Rand.nextInRange(0, 1000)) + "\n";
    S += "  mov edi, " + std::to_string(Rand.nextInRange(8, 40)) + "\n";
    S += "mainloop:\n";
    S += body(/*Depth=*/0, /*FuncIdx=*/-1, NumFuncs);
    S += "  dec edi\n  jnz mainloop\n";
    S += "  and esi, 0xFFFFFF\n";
    S += "  mov ebx, esi\n  mov eax, 2\n  int 0x80\n";
    S += "  mov ebx, 0\n  mov eax, 1\n  int 0x80\n";

    for (int F = 0; F != NumFuncs; ++F) {
      S += "func" + std::to_string(F) + ":\n";
      S += body(/*Depth=*/0, F, NumFuncs);
      S += "  ret\n";
    }
    return S;
  }

private:
  /// Registers the generator plays with (esp/ebp excluded; esi is the
  /// checksum, edi/ecx are loop counters managed by structure emitters).
  const char *randReg() {
    static const char *const Regs[] = {"eax", "ebx", "edx"};
    return Regs[Rand.nextBelow(3)];
  }

  std::string label(const char *Stem) {
    return std::string(Stem) + std::to_string(++LabelId);
  }

  std::string arith() {
    const char *R = randReg();
    switch (Rand.nextBelow(8)) {
    case 0:
      return std::string("  add ") + R + ", " +
             std::to_string(Rand.nextInRange(-100, 100)) + "\n";
    case 1:
      return std::string("  xor ") + R + ", " + randReg() + "\n";
    case 2:
      return std::string("  imul ") + R + ", " + randReg() + ", " +
             std::to_string(Rand.nextInRange(1, 17)) + "\n";
    case 3:
      return std::string("  inc ") + R + "\n";
    case 4:
      return std::string("  dec ") + R + "\n";
    case 5:
      return std::string("  shl ") + R + ", " +
             std::to_string(Rand.nextInRange(1, 7)) + "\n";
    case 6:
      return std::string("  neg ") + R + "\n";
    default:
      return std::string("  lea ") + R + ", [" + randReg() + "+" + randReg() +
             "*2+" + std::to_string(Rand.nextInRange(0, 64)) + "]\n";
    }
  }

  std::string memOp() {
    // Bounded access into the data array: mask an index register first.
    const char *R = randReg();
    const char *V = randReg();
    std::string S;
    S += std::string("  and ") + R + ", 1020\n";
    if (Rand.chance(1, 2))
      S += std::string("  mov [data+") + R + "], " + V + "\n";
    else
      S += std::string("  mov ") + V + ", [data+" + R + "]\n";
    return S;
  }

  std::string diamond(int Depth, int FuncIdx, int NumFuncs) {
    std::string Else = label("else");
    std::string End = label("endif");
    static const char *const Ccs[] = {"jz", "jnz", "jl", "jge", "js", "jns"};
    std::string S;
    S += std::string("  test ") + randReg() + ", " +
         std::to_string(1 << Rand.nextBelow(8)) + "\n";
    S += std::string("  ") + Ccs[Rand.nextBelow(6)] + " " + Else + "\n";
    S += stmts(Depth + 1, FuncIdx, NumFuncs, 2);
    S += "  jmp " + End + "\n";
    S += Else + ":\n";
    S += stmts(Depth + 1, FuncIdx, NumFuncs, 2);
    S += End + ":\n";
    return S;
  }

  std::string loop(int Depth, int FuncIdx, int NumFuncs) {
    std::string Top = label("loop");
    std::string S;
    S += "  push ecx\n";
    S += "  mov ecx, " + std::to_string(Rand.nextInRange(2, 12)) + "\n";
    S += Top + ":\n";
    S += stmts(Depth + 1, FuncIdx, NumFuncs, 2);
    S += "  dec ecx\n  jnz " + Top + "\n";
    S += "  pop ecx\n";
    return S;
  }

  std::string call(int FuncIdx, int NumFuncs) {
    // Calls only go "up" so the program terminates.
    int First = FuncIdx + 1;
    if (First >= NumFuncs)
      return arith();
    int Target = int(Rand.nextInRange(First, NumFuncs - 1));
    if (Rand.chance(1, 3)) {
      // Indirect call through the function table; the index register is
      // masked into the callable (higher-index) range.
      std::string S;
      S += "  mov eax, " + std::to_string(Target) + "\n";
      S += "  call [ftab+eax*4]\n";
      return S;
    }
    return "  call func" + std::to_string(Target) + "\n";
  }

  std::string jecxzDiamond() {
    // jecxz: the one rel8-only branch; exercises its special mangling.
    std::string Skip = label("jcx");
    std::string S;
    S += "  push ecx\n";
    S += "  and ecx, " + std::to_string(Rand.nextBelow(2)) + "\n";
    S += "  jecxz " + Skip + "\n";
    S += arith();
    S += Skip + ":\n";
    S += "  pop ecx\n";
    return S;
  }

  std::string checksum() {
    return std::string("  add esi, ") + randReg() + "\n" +
           "  and esi, 0xFFFFFF\n";
  }

  std::string stmts(int Depth, int FuncIdx, int NumFuncs, int Count) {
    std::string S;
    for (int I = 0; I != Count; ++I) {
      unsigned Pick = Rand.nextBelow(Depth >= 2 ? 6 : 10);
      if (Pick < 4)
        S += arith();
      else if (Pick < 5)
        S += memOp();
      else if (Pick < 6)
        S += checksum();
      else if (Pick < 8)
        S += diamond(Depth, FuncIdx, NumFuncs);
      else if (Pick < 9)
        S += Rand.chance(1, 4) ? jecxzDiamond()
                               : loop(Depth, FuncIdx, NumFuncs);
      else
        S += call(FuncIdx, NumFuncs);
    }
    return S;
  }

  std::string body(int Depth, int FuncIdx, int NumFuncs) {
    return stmts(Depth, FuncIdx, NumFuncs, int(Rand.nextInRange(3, 7))) +
           checksum();
  }

  Rng Rand;
  unsigned LabelId = 0;
  int NumFtab = 0;
};

class TransparencyFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransparencyFuzz, AllConfigsAllClientsMatchNative) {
  ProgramGen Gen(GetParam());
  std::string Source = Gen.generate();
  Program Prog;
  std::string Error;
  ASSERT_TRUE(assemble(Source, Prog, Error)) << Error << "\n" << Source;

  NativeRun Native = runNative(Prog);
  ASSERT_EQ(Native.Status, RunStatus::Exited)
      << Native.FaultReason << "\n"
      << Source;

  const RuntimeConfig Configs[] = {
      RuntimeConfig::emulate(),    RuntimeConfig::bbCacheOnly(),
      RuntimeConfig::linkDirect(), RuntimeConfig::linkIndirect(),
      RuntimeConfig::full(),
  };
  for (const RuntimeConfig &Config : Configs) {
    for (int WithClients = 0; WithClients != 2; ++WithClients) {
      if (Config.Mode == ExecMode::Emulate && WithClients)
        continue; // emulation runs no cache code, so no client effects
      Machine M;
      ASSERT_TRUE(loadProgram(M, Prog));
      CustomTracesClient C1;
      RlrClient C2;
      StrengthReduceClient C3;
      IBDispatchClient C4;
      MultiClient All({&C1, &C2, &C3, &C4});
      Runtime RT(M, Config, WithClients ? &All : nullptr);
      RunResult R = RT.run();
      ASSERT_EQ(R.Status, RunStatus::Exited)
          << R.FaultReason << " (clients=" << WithClients << ")\n"
          << Source;
      EXPECT_EQ(R.ExitCode, Native.ExitCode) << Source;
      EXPECT_EQ(M.output(), Native.Output) << Source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransparencyFuzz,
                         ::testing::Range(uint64_t(1), uint64_t(201)));

TEST(Determinism, RepeatRunsAreCycleIdentical) {
  ProgramGen Gen(99);
  Program Prog;
  std::string Error;
  ASSERT_TRUE(assemble(Gen.generate(), Prog, Error)) << Error;
  auto Run = [&] {
    Machine M;
    loadProgram(M, Prog);
    Runtime RT(M, RuntimeConfig::full());
    return RT.run();
  };
  RunResult A = Run();
  RunResult B = Run();
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Instructions, B.Instructions);
}

} // namespace
