//===- bench/bench_ablation_sideline.cpp - Sideline vs inline optimization -===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation D (DESIGN.md): the paper's Section 3.4 sideline-optimization
/// proposal quantified. An inline client pays its transformation on the
/// application's critical path; the sideline defers it to a concurrent
/// optimizer, paying only the publication cost. The crossover is the
/// optimizer's expense: for a cheap transformation (redundant load
/// removal) sideline ~ inline; as the per-trace analysis cost grows, the
/// sideline's advantage grows with it — most on workloads whose traces die
/// young (gcc, perlbmk).
///
/// The sideline runs the costed optimizer on the application thread at
/// each publication point and refunds every cycle it charged. The bench asserts both halves of
/// that contract: the sideline's cycles are identical at every extra
/// per-trace cost, and at the heaviest cost the sideline beats the inline
/// client on every workload.
///
//===----------------------------------------------------------------------===//

#include "core/Sideline.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <iterator>

using namespace rio;

namespace {

/// RLR plus a configurable amount of additional analysis cost per trace.
class CostedOptimizer : public Client {
public:
  unsigned ExtraCyclesPerTrace = 0;
  RlrClient Inner;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    Inner.onTrace(RT, Tag, Trace);
    if (ExtraCyclesPerTrace)
      RT.machine().chargeCycles(ExtraCyclesPerTrace);
  }
};

/// Simulated cycles of one run of \p Prog, or 0 if it did not exit.
uint64_t runOnce(const Program &Prog, unsigned ExtraCost, bool Sideline) {
  Machine M;
  if (!loadProgram(M, Prog))
    return 0;
  CostedOptimizer Opt;
  Opt.ExtraCyclesPerTrace = ExtraCost;
  RunResult R;
  if (!Sideline) {
    Runtime RT(M, RuntimeConfig::full(), &Opt);
    R = RT.run();
  } else {
    SidelineOptimizer Side(Opt);
    RuntimeConfig Config = RuntimeConfig::full();
    Config.SidelinePump = &Side;
    Runtime RT(M, Config, &Side);
    R = runWithSideline(RT, Side);
  }
  return R.Status == RunStatus::Exited ? R.Cycles : 0;
}

} // namespace

int main() {
  const unsigned Costs[] = {0, 5000, 25000, 100000};
  const char *Benches[] = {"gcc", "perlbmk", "mgrid"};
  constexpr unsigned NumBenches = std::size(Benches);
  const unsigned HeavyCost = Costs[std::size(Costs) - 1];

  Program Progs[NumBenches];
  uint64_t NativeCycles[NumBenches];
  for (unsigned B = 0; B != NumBenches; ++B) {
    Progs[B] = buildWorkload(*findWorkload(Benches[B]), 0);
    NativeCycles[B] = runNativeProgram(Progs[B]).Cycles;
  }

  OutStream &OS = outs();
  OS.printf("Ablation D: inline vs sideline optimization "
            "(normalized time; optimizer = load removal + N extra "
            "cycles/trace)\n\n");
  OS.printf("%-24s", "extra cycles/trace");
  for (const char *Name : Benches)
    OS.printf(" %10s", Name);
  OS.printf("\n");

  uint64_t FreeSideline[NumBenches] = {};
  int Failures = 0;
  for (unsigned Cost : Costs) {
    uint64_t Cycles[2][NumBenches];
    for (int Side = 0; Side != 2; ++Side) {
      OS.printf("%9u %-13s", Cost, Side ? "(sideline)" : "(inline)");
      for (unsigned B = 0; B != NumBenches; ++B) {
        Cycles[Side][B] = runOnce(Progs[B], Cost, Side != 0);
        OS.printf(" %10.3f",
                  double(Cycles[Side][B]) / double(NativeCycles[B]));
        if (!Cycles[Side][B]) {
          errs().printf("%s: run did not exit\n", Benches[B]);
          ++Failures;
        }
      }
      OS.printf("\n");
    }
    for (unsigned B = 0; B != NumBenches; ++B) {
      // The sideline refunds the costed optimizer in full.
      if (Cost == 0)
        FreeSideline[B] = Cycles[1][B];
      else if (Cycles[1][B] != FreeSideline[B]) {
        errs().printf("%s: sideline cycles moved with the optimizer's cost "
                      "(%llu at 0, %llu at %u)\n",
                      Benches[B], (unsigned long long)FreeSideline[B],
                      (unsigned long long)Cycles[1][B], Cost);
        ++Failures;
      }
      if (Cost == HeavyCost && Cycles[1][B] >= Cycles[0][B]) {
        errs().printf("%s: sideline does not beat inline at %u "
                      "cycles/trace\n",
                      Benches[B], Cost);
        ++Failures;
      }
    }
  }
  return Failures ? 1 : 0;
}
