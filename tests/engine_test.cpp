//===- tests/engine_test.cpp - Stop-set execution engine tests ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Machine::run() executes until a stop condition holds; Machine::step() is a
// run bounded to one instruction. These tests pin that the two drive the
// machine identically (cycles, instructions, output, exit code, predictor
// tables), that the runtime's sliced and unsliced runs agree with every
// observer attached, and that each stop condition returns before the
// instruction it guards.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Runtime.h"
#include "core/ThreadedRunner.h"
#include "harness/Experiment.h"
#include "support/Profile.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace rio;
using namespace rio::test;

namespace {

/// Every registered workload plus the cache-management stress programs.
std::vector<const Workload *> everyWorkload() {
  std::vector<const Workload *> All;
  for (const Workload &W : allWorkloads())
    All.push_back(&W);
  for (const Workload &W : cacheWorkloads())
    All.push_back(&W);
  return All;
}

void expectSamePredictors(Machine &A, Machine &B) {
  BranchPredictors &PA = A.predictors();
  BranchPredictors &PB = B.predictors();
  EXPECT_EQ(std::memcmp(PA.condTable(), PB.condTable(),
                        BranchPredictors::CondEntries),
            0);
  EXPECT_EQ(std::memcmp(PA.btb(), PB.btb(),
                        BranchPredictors::BtbEntries * sizeof(uint32_t)),
            0);
  // Return-stack slots at or above the top were never written or are dead.
  ASSERT_EQ(PA.rasTop(), PB.rasTop());
  for (uint32_t K = 0; K != std::min<uint32_t>(PA.rasTop(),
                                               BranchPredictors::RasDepth);
       ++K) {
    uint32_t Slot = (PA.rasTop() - 1 - K) & (BranchPredictors::RasDepth - 1);
    EXPECT_EQ(PA.ras()[Slot], PB.ras()[Slot]) << "return-stack slot " << Slot;
  }
}

void expectSameRun(Machine &A, Machine &B) {
  EXPECT_EQ(A.status(), B.status());
  EXPECT_EQ(A.faultReason(), B.faultReason());
  EXPECT_EQ(A.exitCode(), B.exitCode());
  EXPECT_EQ(A.output(), B.output());
  EXPECT_EQ(A.cycles(), B.cycles());
  EXPECT_EQ(A.instructionsExecuted(), B.instructionsExecuted());
  expectSamePredictors(A, B);
}

/// The one-instruction-at-a-time reference driver.
void runByStep(Machine &M) {
  while (M.status() == RunStatus::Running)
    M.step();
}

void runByRun(Machine &M) {
  while (M.status() == RunStatus::Running)
    M.run(StopSet());
}

TEST(Engine, RunMatchesStepOnEveryWorkload) {
  for (const Workload *W : everyWorkload()) {
    SCOPED_TRACE(W->Name);
    Program P = buildWorkload(*W, W->TestScale);
    Machine ByStep, ByRun;
    ASSERT_TRUE(loadProgram(ByStep, P));
    ASSERT_TRUE(loadProgram(ByRun, P));
    runByStep(ByStep);
    runByRun(ByRun);
    EXPECT_EQ(ByRun.status(), RunStatus::Exited) << ByRun.faultReason();
    expectSameRun(ByStep, ByRun);
  }
}

/// Two workers sum disjoint halves of an array; main spins on their done
/// flags, then prints the total.
Program threadedProgram() {
  return assembleOrDie(R"(
    data:    .space 1024
    results: .space 8
    flags:   .space 8
    stacks:  .space 2048
    main:
      mov ecx, 0
    init:
      mov edx, ecx
      shl edx, 2
      mov [data+edx], ecx
      inc ecx
      cmp ecx, 256
      jnz init
      mov ebx, worker0
      mov ecx, stacks+1024
      mov eax, 5
      int 0x80
      mov ebx, worker1
      mov ecx, stacks+2048
      mov eax, 5
      int 0x80
    join:
      mov eax, [flags]
      test eax, eax
      jz join
      mov eax, [flags+4]
      test eax, eax
      jz join
      mov ebx, [results]
      add ebx, [results+4]
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    worker0:
      mov esi, 0
      mov ecx, 0
    w0:
      mov edx, ecx
      shl edx, 2
      add esi, [data+edx]
      inc ecx
      cmp ecx, 128
      jnz w0
      mov [results], esi
      mov eax, 1
      mov [flags], eax
      mov eax, 6
      int 0x80
    worker1:
      mov esi, 0
      mov ecx, 128
    w1:
      mov edx, ecx
      shl edx, 2
      add esi, [data+edx]
      inc ecx
      cmp ecx, 256
      jnz w1
      mov [results+4], esi
      mov eax, 1
      mov [flags+4], eax
      mov eax, 6
      int 0x80
  )");
}

/// runThreadedNative's round-robin schedule, one step() at a time.
void runThreadedByStep(Machine &M, uint64_t Quantum) {
  std::vector<bool> Done;
  while (M.status() == RunStatus::Running) {
    bool AnyAlive = false;
    for (unsigned Tid = 0; Tid != M.numThreads(); ++Tid) {
      if (Done.size() <= Tid)
        Done.resize(Tid + 1, false);
      if (!M.threadAlive(Tid) || Done[Tid])
        continue;
      AnyAlive = true;
      M.switchToThread(Tid);
      uint64_t Deadline = M.instructionsExecuted() + Quantum;
      while (M.status() == RunStatus::Running &&
             M.instructionsExecuted() < Deadline) {
        if (M.step().Kind == StepKind::ThreadExited) {
          Done[Tid] = true;
          break;
        }
      }
      if (M.status() != RunStatus::Running)
        break;
    }
    if (!AnyAlive)
      break;
  }
}

TEST(Engine, RunMatchesStepOnThreadedProgram) {
  Program P = threadedProgram();
  // A quantum that splits the worker loops mid-iteration.
  constexpr uint64_t Quantum = 97;
  Machine ByStep, ByRun;
  ASSERT_TRUE(loadProgram(ByStep, P));
  ASSERT_TRUE(loadProgram(ByRun, P));
  runThreadedByStep(ByStep, Quantum);
  RunResult R = runThreadedNative(ByRun, Quantum);
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  // sum(0..255)
  EXPECT_EQ(ByRun.output(), "32640\n");
  EXPECT_EQ(ByRun.numThreads(), 3u);
  expectSameRun(ByStep, ByRun);
}

/// An instruction limit stops the native scheduler on that instruction,
/// mid-quantum, with the program still running and nothing faulted; a
/// limit the program never reaches changes nothing.
TEST(Engine, ThreadedNativeStopsAtItsInstructionLimit) {
  Program P = threadedProgram();
  constexpr uint64_t Quantum = 97, Limit = 1000;
  Machine Stopped, Unlimited, Generous;
  ASSERT_TRUE(loadProgram(Stopped, P));
  ASSERT_TRUE(loadProgram(Unlimited, P));
  ASSERT_TRUE(loadProgram(Generous, P));
  RunResult R = runThreadedNative(Stopped, Quantum, Limit);
  EXPECT_EQ(R.Status, RunStatus::Running);
  EXPECT_EQ(R.Instructions, Limit);
  EXPECT_EQ(Stopped.faultReason(), "");
  EXPECT_EQ(Stopped.output(), "");
  ASSERT_EQ(runThreadedNative(Unlimited, Quantum).Status, RunStatus::Exited);
  ASSERT_GT(Unlimited.instructionsExecuted(), Limit);
  runThreadedNative(Generous, Quantum, Unlimited.instructionsExecuted());
  expectSameRun(Unlimited, Generous);
}

struct RuntimeRun {
  RunResult Result;
  std::string Output;
  uint64_t Samples = 0;
  uint64_t IbInlineHits = 0;
  uint64_t IblLookups = 0;
};

/// Runs \p P under full() with all four clients, a profiler at an odd
/// interval and inline indirect-branch caches, in slices of \p Slice
/// instructions (0: one run()).
RuntimeRun runFull(const Program &P, uint64_t Slice,
                   const MachineConfig &MC = MachineConfig()) {
  Machine M(MC);
  RuntimeRun Out;
  if (!loadProgram(M, P)) {
    ADD_FAILURE() << "program does not fit";
    return Out;
  }
  SampleProfile Prof(777);
  RuntimeConfig Config = RuntimeConfig::full();
  Config.IbInline = true;
  Config.Profiler = &Prof;
  ClientBundle Clients(ClientKind::AllFour);
  Runtime RT(M, Config, Clients.client());
  if (Slice == 0) {
    Out.Result = RT.run();
  } else {
    do
      Out.Result = RT.runFor(Slice);
    while (Out.Result.QuantumExpired);
  }
  Out.Output = M.output();
  Out.Samples = Prof.totalSamples();
  Out.IbInlineHits = RT.stats().get("ib_inline_hits");
  Out.IblLookups = RT.stats().get("ibl_lookups");
  return Out;
}

void expectSameRuntimeRun(const RuntimeRun &A, const RuntimeRun &B) {
  EXPECT_EQ(A.Result.Status, B.Result.Status);
  EXPECT_EQ(A.Result.FaultReason, B.Result.FaultReason);
  EXPECT_EQ(A.Result.ExitCode, B.Result.ExitCode);
  EXPECT_EQ(A.Result.Cycles, B.Result.Cycles);
  EXPECT_EQ(A.Result.Instructions, B.Result.Instructions);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Samples, B.Samples);
  EXPECT_EQ(A.IbInlineHits, B.IbInlineHits);
  EXPECT_EQ(A.IblLookups, B.IblLookups);
}

TEST(Engine, SlicedRunMatchesOneRunUnderFullRuntime) {
  uint64_t TotalHits = 0;
  for (const Workload *W : everyWorkload()) {
    SCOPED_TRACE(W->Name);
    Program P = buildWorkload(*W, W->TestScale);
    Outcome Native = runNativeProgram(P);
    RuntimeRun Whole = runFull(P, 0);
    RuntimeRun Sliced = runFull(P, 997);
    EXPECT_EQ(Whole.Result.Status, RunStatus::Exited)
        << Whole.Result.FaultReason;
    EXPECT_EQ(Whole.Output, Native.Output);
    EXPECT_EQ(Whole.Result.ExitCode, Native.ExitCode);
    EXPECT_GT(Whole.Samples, 0u);
    expectSameRuntimeRun(Whole, Sliced);
    TotalHits += Whole.IbInlineHits;
  }
  // Arm pcs are stop-marked: some linked arm must have been counted.
  EXPECT_GT(TotalHits, 0u);
}

TEST(Engine, BudgetFaultHitsAtTheSameInstruction) {
  const Workload *W = findWorkload("crafty");
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  MachineConfig MC;
  MC.MaxInstructions = 5003;

  Machine ByStep(MC), ByRun(MC);
  ASSERT_TRUE(loadProgram(ByStep, P));
  ASSERT_TRUE(loadProgram(ByRun, P));
  runByStep(ByStep);
  runByRun(ByRun);
  EXPECT_EQ(ByRun.status(), RunStatus::Faulted);
  EXPECT_EQ(ByRun.faultReason(), "instruction budget exceeded");
  EXPECT_EQ(ByRun.instructionsExecuted(), MC.MaxInstructions);
  expectSameRun(ByStep, ByRun);

  RuntimeRun Whole = runFull(P, 0, MC);
  RuntimeRun Sliced = runFull(P, 997, MC);
  EXPECT_EQ(Whole.Result.Status, RunStatus::Faulted);
  EXPECT_NE(Whole.Result.FaultReason.find("instruction budget exceeded"),
            std::string::npos);
  EXPECT_EQ(Whole.Result.Instructions, MC.MaxInstructions);
  expectSameRuntimeRun(Whole, Sliced);
}

TEST(Engine, DeadlineAtTheBudgetSuspendsBeforeFaulting) {
  const Workload *W = findWorkload("crafty");
  ASSERT_NE(W, nullptr);
  Program P = buildWorkload(*W, W->TestScale);
  MachineConfig MC;
  MC.MaxInstructions = 4000;
  Machine M(MC);
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.runFor(MC.MaxInstructions);
  EXPECT_TRUE(R.QuantumExpired);
  EXPECT_EQ(R.Status, RunStatus::Running);
  EXPECT_EQ(R.Instructions, MC.MaxInstructions);
  R = RT.runFor(1);
  EXPECT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_EQ(R.Instructions, MC.MaxInstructions);
}

/// Pcs of the first \p N instructions of \p P, found by stepping.
std::vector<AppPc> firstPcs(const Program &P, unsigned N) {
  Machine M;
  EXPECT_TRUE(loadProgram(M, P));
  std::vector<AppPc> Pcs;
  for (unsigned I = 0; I != N; ++I) {
    Pcs.push_back(M.cpu().Pc);
    M.step();
  }
  return Pcs;
}

TEST(Engine, EachStopConditionReturnsBeforeItsInstruction) {
  Program P = assembleOrDie(R"(
    cell: .space 4
    main:
      mov eax, 1
      mov ebx, 2
      mov [cell], eax
      add eax, ebx
      hlt
  )");
  std::vector<AppPc> Pc = firstPcs(P, 5);

  // Stop mark: run() returns before the marked pc, then executes it as
  // the first instruction of the next run.
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    ASSERT_NE(M.fetchDecode(Pc[3]), nullptr); // cached before the mark
    M.setStopPc(Pc[3], true);
    EXPECT_TRUE(M.fetchDecode(Pc[3])->Stop);
    StepResult S = M.run(StopSet());
    EXPECT_EQ(S.Kind, StepKind::Ok);
    EXPECT_EQ(M.cpu().Pc, Pc[3]);
    EXPECT_EQ(M.instructionsExecuted(), 3u);
    S = M.run(StopSet());
    EXPECT_EQ(S.Kind, StepKind::Exited);
    M.setStopPc(Pc[3], false);
    EXPECT_FALSE(M.fetchDecode(Pc[3])->Stop);
  }
  // Stop pc and low pc.
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    StopSet Stops;
    Stops.StopPc = Pc[2];
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok);
    EXPECT_EQ(M.cpu().Pc, Pc[2]);
    Stops = StopSet();
    Stops.LowPc = Pc[4] + 1; // every pc of the program is below it
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok);
    EXPECT_EQ(M.cpu().Pc, Pc[3]);
  }
  // Instruction deadline and cycle limit.
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    StopSet Stops;
    Stops.InstrLimit = 2;
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok);
    EXPECT_EQ(M.instructionsExecuted(), 2u);
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok); // already there: no-op
    EXPECT_EQ(M.instructionsExecuted(), 2u);
    Stops = StopSet();
    Stops.CycleLimit = M.cycles() + 1;
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok);
    EXPECT_EQ(M.instructionsExecuted(), 3u);
  }
  // A store into a watched range stops right after the storing instruction.
  {
    Machine M;
    ASSERT_TRUE(loadProgram(M, P));
    AppPc Cell = P.symbol("cell");
    M.addWriteWatch(Cell, Cell + 4);
    StopSet Stops;
    Stops.CodeWriteCursor = M.codeWriteLog().size();
    EXPECT_EQ(M.run(Stops).Kind, StepKind::Ok);
    EXPECT_EQ(M.cpu().Pc, Pc[3]);
    EXPECT_EQ(M.codeWriteLog().size(), Stops.CodeWriteCursor + 1);
  }
}

} // namespace
