//===- bench/bench_ablation_traceopt.cpp - Per-pass optimizer sweep ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablates the trace-optimizer pipeline one pass at a time on a workload
/// whose loop body carries one instance of every pattern the pipeline
/// targets: a store-immediate/reload pair (constant propagation),
/// a repeated same-site load (redundant load forwarding), an overwritten
/// store (dead-store elimination), and an inc chain ahead of a full flag
/// writer (strength reduction under the Pentium 4 cost model).
///
/// Every run uses the asynchronous sideline, so the publication machinery
/// costs the same in every row and the deltas are the passes' own. The
/// bench asserts each individual pass beats the empty pipeline outright and
/// that the full pipeline is at least as good as every individual pass —
/// the passes must compose, not cannibalize.
///
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <cstdlib>
#include <string>

using namespace rio;

namespace {

std::string comboSource(int Iters) {
  return R"(
    .entry main
    a: .word 9
    s: .word 0
    t: .word 0
    main:
      mov esi, 0
      mov edx, 0
      mov ebp, )" + std::to_string(Iters) + R"(
    loop:
      mov [s], 123
      mov eax, [s]
      add esi, eax
      mov ebx, [a]
      add esi, ebx
      mov ecx, [a]
      add esi, ecx
      mov [t], ebp
      mov [t], esi
      inc edx
      inc edx
      add esi, edx
      and esi, 0xFFFFFF
      dec ebp
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
}

uint64_t runOnce(const Program &Prog, const TraceOptOptions &Opts,
                 const std::string &Expected, const char *Name) {
  Machine M;
  if (!loadProgram(M, Prog)) {
    errs().printf("%s: program too large\n", Name);
    std::abort();
  }
  TraceOptClient TraceOpt(Opts);
  SidelineOptimizer Sideline(TraceOpt, SidelineMode::Async);
  RuntimeConfig Config = RuntimeConfig::full();
  Config.SidelinePump = &Sideline;
  Runtime RT(M, Config, &Sideline);
  RunResult R = runWithSideline(RT, Sideline);
  if (R.Status != RunStatus::Exited || M.output() != Expected) {
    errs().printf("%s: not transparent\n", Name);
    std::abort();
  }
  return R.Cycles;
}

} // namespace

int main() {
  OutStream &OS = outs();
  Program Prog;
  std::string Error;
  if (!assemble(comboSource(4000), Prog, Error)) {
    errs().printf("assembly failed: %s\n", Error.c_str());
    return 1;
  }
  Outcome Native = runNativeProgram(Prog);
  if (Native.Status != RunStatus::Exited) {
    errs().printf("native run failed\n");
    return 1;
  }

  struct Row {
    const char *Name;
    bool Loads, Consts, Dse, Strength;
  };
  const Row Rows[] = {
      {"none", false, false, false, false},
      {"loads", true, false, false, false},
      {"consts", false, true, false, false},
      {"dse", false, false, true, false},
      {"strength", false, false, false, true},
      {"all", true, true, true, true},
  };

  OS.printf("Trace-optimizer pass ablation (simulated cycles; async "
            "sideline in every row)\n\n");
  OS.printf("%-10s %12s %9s\n", "passes", "cycles", "vs none");

  uint64_t None = 0, All = 0, BestSingle = ~0ull;
  for (const Row &R : Rows) {
    TraceOptOptions Opts;
    Opts.RemoveLoads = R.Loads;
    Opts.FoldConsts = R.Consts;
    Opts.EliminateDeadStores = R.Dse;
    Opts.StrengthReduce = R.Strength;
    uint64_t Cycles = runOnce(Prog, Opts, Native.Output, R.Name);
    if (std::string(R.Name) == "none")
      None = Cycles;
    else if (std::string(R.Name) == "all")
      All = Cycles;
    else {
      if (Cycles < BestSingle)
        BestSingle = Cycles;
      if (Cycles >= None) {
        errs().printf("%s: pass did not beat the empty pipeline "
                      "(%llu >= %llu)\n",
                      R.Name, (unsigned long long)Cycles,
                      (unsigned long long)None);
        return 1;
      }
    }
    OS.printf("%-10s %12llu %+8.1f%%\n", R.Name, (unsigned long long)Cycles,
              None ? 100.0 * (double(Cycles) - double(None)) / double(None)
                   : 0.0);
  }

  if (All > BestSingle) {
    errs().printf("full pipeline is worse than the best single pass "
                  "(%llu > %llu)\n",
                  (unsigned long long)All, (unsigned long long)BestSingle);
    return 1;
  }
  return 0;
}
