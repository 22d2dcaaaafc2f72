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
// observer attached, that each stop condition returns before the
// instruction it guards, and that run()'s straight-line runs stop exactly
// where a step() loop testing every condition before every instruction
// would.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Runtime.h"
#include "core/ThreadedRunner.h"
#include "harness/Experiment.h"
#include "support/Profile.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
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

//===----------------------------------------------------------------------===//
// Runs stop exactly like steps
//===----------------------------------------------------------------------===//

/// run(\p S) as a step() loop that tests every condition before every
/// instruction but the first, as run() documents: the behaviour its runs
/// must reproduce.
StepResult runBySteps(Machine &M, const StopSet &S) {
  if (M.status() == RunStatus::Running &&
      (M.cycles() >= S.CycleLimit || M.instructionsExecuted() >= S.InstrLimit))
    return StepResult();
  for (bool First = true;; First = false) {
    if (!First) {
      const AppPc Pc = M.cpu().Pc;
      if (M.codeWriteLog().size() > S.CodeWriteCursor ||
          M.instructionsExecuted() >= S.InstrLimit || Pc == S.StopPc ||
          Pc < S.LowPc || M.cycles() >= S.CycleLimit)
        return StepResult();
      const PredecodedInstr *D = M.fetchDecode(Pc);
      if (D && D->Stop)
        return StepResult();
    }
    StepResult R = M.step();
    if (R.Kind != StepKind::Ok)
      return R;
  }
}

void expectSameState(Machine &A, Machine &B) {
  ASSERT_EQ(A.status(), B.status()) << A.faultReason() << B.faultReason();
  ASSERT_EQ(A.cpu().Pc, B.cpu().Pc);
  ASSERT_EQ(A.lastPc(), B.lastPc());
  ASSERT_EQ(A.cycles(), B.cycles());
  ASSERT_EQ(A.instructionsExecuted(), B.instructionsExecuted());
  ASSERT_EQ(std::memcmp(A.cpu().Gpr, B.cpu().Gpr, sizeof(A.cpu().Gpr)), 0);
  ASSERT_EQ(std::memcmp(A.cpu().Xmm, B.cpu().Xmm, sizeof(A.cpu().Xmm)), 0);
  ASSERT_EQ(A.cpu().Eflags, B.cpu().Eflags);
  ASSERT_EQ(A.output(), B.output());
  ASSERT_EQ(A.faultReason(), B.faultReason());
}

/// Drives \p A with run() and \p B with runBySteps() under the same seeded
/// stop sets until the program ends or \p MaxStops stops pass, comparing
/// the machines at every stop. Limits land a few instructions or cycles
/// ahead, so most stops fall inside runs; the stop pc and the low pc are
/// ones seen at earlier stops; every few stops a seen pc's stop mark
/// toggles on both.
void driveBoth(Machine &A, Machine &B, Rng &R, std::vector<AppPc> &Seen,
               unsigned MaxStops = ~0u) {
  for (unsigned Stop = 0; Stop != MaxStops; ++Stop) {
    if (A.status() != RunStatus::Running)
      return;
    StopSet S;
    if (R.nextBelow(4) != 0)
      S.InstrLimit = A.instructionsExecuted() + 1 + R.nextBelow(40);
    if (R.nextBelow(3) == 0)
      S.CycleLimit = A.cycles() + 1 + R.nextBelow(150);
    if (!Seen.empty() && R.nextBelow(4) == 0)
      S.StopPc = Seen[R.nextBelow(Seen.size())];
    if (!Seen.empty() && R.nextBelow(8) == 0)
      S.LowPc = Seen[R.nextBelow(Seen.size())];
    // A cursor at the log's end, or one entry behind it (a lagging
    // consumer: run() then stops after one instruction).
    if (const size_t Log = A.codeWriteLog().size(); R.nextBelow(2) == 0)
      S.CodeWriteCursor = Log;
    else if (Log != 0 && R.nextBelow(4) == 0)
      S.CodeWriteCursor = Log - 1;
    if (!Seen.empty() && R.nextBelow(8) == 0) {
      const AppPc Pc = Seen[R.nextBelow(Seen.size())];
      const bool Mark = R.nextBelow(2) == 0;
      A.setStopPc(Pc, Mark);
      B.setStopPc(Pc, Mark);
    }
    StepResult RA = A.run(S);
    StepResult RB = runBySteps(B, S);
    ASSERT_EQ(RA.Kind, RB.Kind) << "stop " << Stop;
    ASSERT_NO_FATAL_FAILURE(expectSameState(A, B)) << "stop " << Stop;
    if (Seen.size() < 64)
      Seen.push_back(A.cpu().Pc);
    else
      Seen[R.nextBelow(Seen.size())] = A.cpu().Pc;
  }
}

/// Assembles a checked-in program from tests/programs.
Program programFile(const char *Name) {
  std::ifstream In(std::string(RIO_TEST_PROGRAMS_DIR) + "/" + Name);
  std::stringstream Source;
  Source << In.rdbuf();
  EXPECT_FALSE(Source.str().empty()) << "cannot read " << Name;
  return assembleOrDie(Source.str());
}

/// A store into the immediate of a later instruction of its own run: the
/// run must leave after the store and run the new bytes. Prints the sum of
/// 1 + c for c = 40 .. 1, 860.
constexpr const char *StoreAheadSource = R"(
    main:
      mov esi, 0
      mov ecx, 40
    loop:
      mov [site+1], ecx
      add esi, 1
    site:
      mov eax, 305419896
      add esi, eax
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";

TEST(Engine, RunsStopExactlyLikeStep) {
  std::vector<std::pair<std::string, Program>> Programs;
  for (const Workload *W : everyWorkload())
    Programs.emplace_back(W->Name, buildWorkload(*W, W->TestScale));
  Programs.emplace_back("smc_rounds.s", programFile("smc_rounds.s"));
  Programs.emplace_back("smc_in_trace.s", programFile("smc_in_trace.s"));
  Programs.emplace_back("store-ahead", assembleOrDie(StoreAheadSource));
  Rng R(30);
  for (auto &[Name, P] : Programs) {
    SCOPED_TRACE(Name);
    Machine A, B;
    ASSERT_TRUE(loadProgram(A, P));
    ASSERT_TRUE(loadProgram(B, P));
    // Watch the program image so code stores grow the log.
    A.addWriteWatch(P.LoadAddr, P.endAddr());
    B.addWriteWatch(P.LoadAddr, P.endAddr());
    std::vector<AppPc> Seen;
    ASSERT_NO_FATAL_FAILURE(driveBoth(A, B, R, Seen, 200));
    {
      // A fork resumes mid-program with no runs of its own.
      Machine ForkA(A), ForkB(B);
      EXPECT_EQ(ForkA.runBytes(), 0u);
      std::vector<AppPc> ForkSeen = Seen;
      ASSERT_NO_FATAL_FAILURE(driveBoth(ForkA, ForkB, R, ForkSeen, 200));
    }
    ASSERT_NO_FATAL_FAILURE(driveBoth(A, B, R, Seen));
    EXPECT_EQ(A.status(), RunStatus::Exited) << A.faultReason();
  }
}

TEST(Engine, StoreIntoALaterRecordOfTheRunRunsTheNewBytes) {
  Program P = assembleOrDie(StoreAheadSource);
  // The store writes the immediate of `mov eax, imm32`, its last four bytes.
  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  const PredecodedInstr *Site = M.fetchDecode(P.symbol("site"));
  ASSERT_NE(Site, nullptr);
  ASSERT_EQ(Site->Length, 5u);
  while (M.status() == RunStatus::Running)
    M.run(StopSet());
  EXPECT_EQ(M.output(), "860\n");
  EXPECT_EQ(M.runBytes(), 0u) << "an ended program keeps no runs";
}

/// What Runtime::patchRel32 does to a linked branch: rewrite its rel32 and
/// invalidate the branch's decodes.
void patchRel32(Machine &M, AppPc Cti, unsigned Len, AppPc Target) {
  ASSERT_TRUE(M.mem().write32(Cti + Len - 4, Target - (Cti + Len)));
  M.invalidateDecodeRange(Cti, Cti + Len);
}

TEST(Engine, RelinkingALaterBranchOfTheRunTakesTheNewTarget) {
  // The loop body is one run ending in `jmp`; the machine stops inside it,
  // the branch is relinked, and the resumed run must take the new target.
  Program P = assembleOrDie(R"(
    main:
      mov esi, 0
      mov ecx, 6
    loop:
      add esi, 1
      add esi, ecx
      mov edx, esi
    site:
      jmp first
    first:
      add esi, 100
      jmp next
    second:
      add esi, 10000
    next:
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  const AppPc Site = P.symbol("site");
  Machine A, B;
  ASSERT_TRUE(loadProgram(A, P));
  ASSERT_TRUE(loadProgram(B, P));
  const PredecodedInstr *Jmp = B.fetchDecode(Site);
  ASSERT_NE(Jmp, nullptr);
  const unsigned Len = Jmp->Length;
  // Two iterations build the loop's run, and a stop one instruction into
  // the body builds the run from its second instruction on.
  StopSet S;
  S.StopPc = P.symbol("next");
  for (unsigned I = 0; I != 4; ++I) {
    ASSERT_EQ(A.run(S).Kind, runBySteps(B, S).Kind);
    ASSERT_NO_FATAL_FAILURE(expectSameState(A, B));
  }
  for (AppPc Target : {P.symbol("second"), P.symbol("first")}) {
    StopSet Into;
    Into.InstrLimit = A.instructionsExecuted() + 3; // stops inside the run
    ASSERT_EQ(A.run(Into).Kind, runBySteps(B, Into).Kind);
    ASSERT_NO_FATAL_FAILURE(expectSameState(A, B));
    patchRel32(A, Site, Len, Target);
    patchRel32(B, Site, Len, Target);
    for (unsigned I = 0; I != 2; ++I) {
      ASSERT_EQ(A.run(S).Kind, runBySteps(B, S).Kind);
      ASSERT_NO_FATAL_FAILURE(expectSameState(A, B));
    }
  }
  while (A.status() == RunStatus::Running) {
    ASSERT_EQ(A.run(StopSet()).Kind, runBySteps(B, StopSet()).Kind);
    ASSERT_NO_FATAL_FAILURE(expectSameState(A, B));
  }
  // sum(1 + c) for c = 6 .. 1, plus 100 for the four iterations through
  // `first` and 10000 for the two through `second`.
  EXPECT_EQ(A.output(), "20427\n");
}

/// A loop whose body holds three forward conditional branches over short
/// arms: taken on alternate iterations, on alternate pairs of iterations
/// and on one iteration in four. Its runs fall through some of them and
/// leave by a side exit at others. Prints what sideExitOutput() computes.
constexpr const char *SideExitSource = R"(
    main:
      mov esi, 0
      mov edi, 0
      mov ecx, 300
    loop:
      add esi, ecx
      mov eax, ecx
      and eax, 1
      jz even
      add edi, 3
      xor esi, 85
    even:
      mov edx, ecx
      add edi, esi
      and edx, 2
      jnz pair
      add edi, 5
      sub esi, 1
    pair:
      mov eax, ecx
      and eax, 3
      cmp eax, 3
      je last
      add esi, edi
      and esi, 65535
    last:
      dec ecx
      jnz loop
      mov ebx, edi
      xor ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";

/// What SideExitSource prints.
std::string sideExitOutput() {
  uint32_t Esi = 0, Edi = 0;
  for (uint32_t Ecx = 300; Ecx != 0; --Ecx) {
    Esi += Ecx;
    if (Ecx & 1) {
      Edi += 3;
      Esi ^= 85;
    }
    Edi += Esi;
    if (!(Ecx & 2)) {
      Edi += 5;
      Esi -= 1;
    }
    if ((Ecx & 3) != 3)
      Esi = (Esi + Edi) & 65535;
  }
  return std::to_string(int32_t(Edi ^ Esi)) + "\n";
}

TEST(Engine, SideExitsStopExactlyLikeStep) {
  // The deadline or the cycle limit lands a few instructions or cycles
  // ahead at every stop. Runs that do not fit run their records alone and
  // must stop following at a side exit, and a run entered whole must
  // reach its last record below the cycle limit even when every branch
  // before it mispredicts. The budget turns a wrong path into a fault,
  // not a hang.
  Program P = assembleOrDie(SideExitSource);
  MachineConfig MC;
  MC.MaxInstructions = 100000;
  Machine A(MC), B(MC);
  ASSERT_TRUE(loadProgram(A, P));
  ASSERT_TRUE(loadProgram(B, P));
  for (unsigned Stop = 0; A.status() == RunStatus::Running; ++Stop) {
    StopSet S;
    if (Stop % 2 == 0)
      S.InstrLimit = A.instructionsExecuted() + 1 + Stop % 53;
    else
      S.CycleLimit = A.cycles() + 1 + Stop * 7 % 211;
    ASSERT_EQ(A.run(S).Kind, runBySteps(B, S).Kind) << "stop " << Stop;
    ASSERT_NO_FATAL_FAILURE(expectSameState(A, B)) << "stop " << Stop;
  }
  EXPECT_EQ(A.output(), sideExitOutput());
  // Seeded stop sets, stop pcs, low pcs and stop marks as well.
  Machine C(MC), D(MC);
  ASSERT_TRUE(loadProgram(C, P));
  ASSERT_TRUE(loadProgram(D, P));
  Rng R(31);
  std::vector<AppPc> Seen;
  ASSERT_NO_FATAL_FAILURE(driveBoth(C, D, R, Seen));
  EXPECT_EQ(C.output(), sideExitOutput());
}

TEST(Engine, StoreIntoTheLastByteOfALongRunDropsIt) {
  // The loop body from `loop` through `site` is one run exactly RunMaxSpan
  // bytes long, and each iteration stores its counter into the top byte of
  // the immediate of `site`, the run's last byte: every store must drop
  // the run whose entry lies RunMaxSpan - 1 bytes before the written byte.
  std::string Source = R"(
    main:
      mov esi, 0
      mov edi, 0
      mov ecx, 20
    loop:
  )";
  for (int I = 0; I != 41; ++I)
    Source += "  add edi, 1000\n";
  Source += R"(
      mov edx, edi
      inc edx
    site:
      add esi, 100000
      movb [site+5], cl
      dec ecx
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  Program P = assembleOrDie(Source);
  ASSERT_EQ(P.symbol("site") + 6 - P.symbol("loop"), Machine::RunMaxSpan);
  MachineConfig MC;
  MC.MaxInstructions = 100000;
  Machine A(MC), B(MC);
  ASSERT_TRUE(loadProgram(A, P));
  ASSERT_TRUE(loadProgram(B, P));
  runByRun(A);
  runByStep(B);
  // The first iteration adds 100000; each later one adds 100000 with the
  // counter of the iteration before in its top byte.
  uint32_t Sum = 100000;
  for (uint32_t Ecx = 19; Ecx != 0; --Ecx)
    Sum += 100000 + ((Ecx + 1) << 24);
  EXPECT_EQ(A.output(), std::to_string(int32_t(Sum)) + "\n");
  expectSameRun(A, B);
}

/// Replaces every "@" in \p Text with \p With.
std::string substitute(std::string Text, const std::string &With) {
  for (size_t At = Text.find('@'); At != std::string::npos;
       At = Text.find('@', At + With.size()))
    Text.replace(At, 1, With);
  return Text;
}

/// A loop whose body is one run: a store into @, then more records of the
/// same run, among them `site: mov eax, imm32`, whose immediate lies at
/// site+1 and is summed every iteration. The four nops after it let an
/// 8-byte store at site+1 keep them, since `val` holds 0x90909090 in its
/// high half. `slot` is data no run covers, alone in its watch line.
constexpr const char *StoreFormSource = R"(
    val:  .long 0, 0x90909090
      .align 256
    slot: .long 0, 0
      .align 256
    main:
      mov esi, 0
      mov ecx, 40
      mov ebp, esp
    loop:
      mov [val], ecx
      mov edx, ecx
      STORE
      add esi, 1
    site:
      mov eax, 305419896
      nop
      nop
      nop
      nop
      add esi, eax
      dec ecx
      jnz loop
      mov esp, ebp
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";

/// StoreFormSource with \p Store, storing to \p Target, in place of STORE.
Program storeFormProgram(const char *Store, const std::string &Target) {
  std::string Source = StoreFormSource;
  Source.replace(Source.find("STORE"), 5, substitute(Store, Target));
  return assembleOrDie(Source);
}

TEST(Engine, EveryStoringFormLeavesItsRun) {
  // Only the handlers that can store test RunBreak, so each must: one
  // instruction per form whose handler can write memory, storing to @.
  // Neither movzx/movsx, imul, the scalar-double arithmetic nor the cvt
  // conversions have an encoding with a memory destination (isa/Forms.cpp;
  // predecode asserts it), so they cannot store.
  const struct {
    const char *Form;
    const char *Store;
    unsigned Logged = 40; // stores into slot, one per iteration
  } Stores[] = {
      {"MovMR", "mov [@], ecx"},
      {"MovMI", "mov [@], 7"},
      {"MovB", "movb [@], cl"},
      {"MovsdMX", "movsd xmm0, [val]\n movsd [@], xmm0"},
      {"PushR", "mov esp, @+4\n push ecx\n mov esp, ebp"},
      {"PushI", "mov esp, @+4\n push 9\n mov esp, ebp"},
      {"Push", "mov esp, @+4\n push [val]\n mov esp, ebp"},
      {"Pop", "mov esp, val\n pop [@]\n mov esp, ebp"},
      {"Xchg", "xchg [@], edx"},
      {"AddAdc", "add [@], ecx"},
      {"AddAdc", "adc [@], 3"},
      {"SubSbb", "sub [@], ecx"},
      {"SubSbb", "sbb [@], ecx"},
      {"Logic", "and [@], ecx"},
      {"Logic", "or [@], ecx"},
      {"Logic", "xor [@], ecx"},
      {"IncDec", "inc [@]"},
      {"IncDec", "dec [@]"},
      {"Neg", "neg [@]"},
      {"Not", "not [@]"},
      {"Shift", "shl [@], 1"},
      {"Shift", "shr [@], 3"},
      {"Shift", "sar [@], cl", 39}, // cl = 32 masks to 0: no store
      {"Savef", "savef [@]"},
  };
  MachineConfig MC;
  MC.MaxInstructions = 100000;
  for (const auto &S : Stores) {
    SCOPED_TRACE(S.Store);
    // Into a later record of its own run: the run must leave after the
    // store and run the new bytes.
    {
      Program P = storeFormProgram(S.Store, "site+1");
      Machine A(MC), B(MC);
      ASSERT_TRUE(loadProgram(A, P));
      ASSERT_TRUE(loadProgram(B, P));
      runByRun(A);
      runByStep(B);
      EXPECT_EQ(A.status(), RunStatus::Exited) << S.Form << A.faultReason();
      ASSERT_NO_FATAL_FAILURE(expectSameState(A, B)) << S.Form;
    }
    // Into a watched line: run() must stop right after the store, as a
    // step() loop checking the log before every instruction does.
    {
      Program P = storeFormProgram(S.Store, "slot");
      Machine A(MC), B(MC);
      ASSERT_TRUE(loadProgram(A, P));
      ASSERT_TRUE(loadProgram(B, P));
      A.addWriteWatch(P.symbol("slot"), P.symbol("slot") + 8);
      B.addWriteWatch(P.symbol("slot"), P.symbol("slot") + 8);
      for (unsigned Stop = 0; A.status() == RunStatus::Running; ++Stop) {
        StopSet Stops;
        Stops.CodeWriteCursor = A.codeWriteLog().size();
        ASSERT_EQ(A.run(Stops).Kind, runBySteps(B, Stops).Kind)
            << S.Form << " stop " << Stop;
        ASSERT_NO_FATAL_FAILURE(expectSameState(A, B))
            << S.Form << " stop " << Stop;
      }
      EXPECT_EQ(A.codeWriteLog().size(), S.Logged) << S.Form;
    }
  }
}

/// A run of twenty records, then @, then more: every way out of a run
/// happens in the middle of a long one.
constexpr const char *SettleSource = R"(
    main:
      mov esi, 1
      mov edi, 2
      add esi, edi
      xor edi, 5
      add esi, 7
      sub edi, esi
      lea esi, [esi+edi*2+3]
      add esi, edi
      xor edi, 9
      add esi, 11
      sub edi, esi
      lea esi, [esi+edi*2+3]
      add esi, edi
      xor edi, 13
      add esi, 17
      sub edi, esi
      lea esi, [esi+edi*2+3]
      add esi, edi
      xor edi, 19
      add esi, 23
      EVENT
      add esi, edi
      xor edi, 29
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";

TEST(Engine, EveryWayOutOfARunSettlesLikeStep) {
  // pc, lastPc(), cycles(), instructionsExecuted() and faultReason() after
  // each exit must be a step() loop's, in a run entered whole and in one
  // whose records run alone (a deadline or cycle limit inside it). No
  // byte sequence decodes to the invalid form (see
  // VmDispatch.EveryHandlerRunsItsInstruction); its handler settles
  // through the same fault exit as the memory and divide faults.
  const struct {
    const char *Name;
    const char *Event;
    RunStatus End;
  } Events[] = {
      {"memory fault", "mov ebx, 0xFFFFFFF0\n mov eax, [ebx]",
       RunStatus::Faulted},
      {"divide by zero", "mov eax, 7\n cdq\n mov ebx, 0\n idiv ebx",
       RunStatus::Faulted},
      {"divide overflow", "mov eax, 0\n mov edx, 1\n mov ebx, 1\n idiv ebx",
       RunStatus::Faulted},
      {"clientcall", "clientcall 5", RunStatus::Exited},
      {"int 0x80", "mov ebx, esi\n mov eax, 2\n int 0x80", RunStatus::Exited},
      {"hlt", "hlt", RunStatus::Exited},
  };
  for (const auto &E : Events) {
    SCOPED_TRACE(E.Name);
    std::string Source = SettleSource;
    Source.replace(Source.find("EVENT"), 5, E.Event);
    Program P = assembleOrDie(Source);
    for (unsigned Limit = 0; Limit != 60; ++Limit) {
      SCOPED_TRACE(Limit);
      Machine A, B;
      ASSERT_TRUE(loadProgram(A, P));
      ASSERT_TRUE(loadProgram(B, P));
      // Limit 0 runs unbounded; then a deadline 1 to 29 instructions or a
      // cycle limit 1 to 30 cycles ahead of each stop.
      for (unsigned Stop = 0; A.status() == RunStatus::Running; ++Stop) {
        StopSet S;
        if (Limit != 0 && Limit < 30)
          S.InstrLimit = A.instructionsExecuted() + Limit;
        else if (Limit >= 30)
          S.CycleLimit = A.cycles() + Limit - 29;
        const StepResult RA = A.run(S);
        const StepResult RB = runBySteps(B, S);
        ASSERT_EQ(RA.Kind, RB.Kind) << "stop " << Stop;
        ASSERT_EQ(RA.ClientCallId, RB.ClientCallId) << "stop " << Stop;
        ASSERT_NO_FATAL_FAILURE(expectSameState(A, B)) << "stop " << Stop;
      }
      EXPECT_EQ(A.status(), E.End) << A.faultReason();
    }
  }
}

} // namespace
