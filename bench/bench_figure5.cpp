//===- bench/bench_figure5.cpp - Paper Figure 5 reproduction -----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Figure 5: normalized program execution time
/// (our time / native time, smaller is better) on the SPEC2000-like suite
/// for six configurations — base DynamoRIO, each of the four sample
/// optimizations independently, and all four combined.
///
/// Paper shapes this must reproduce:
///   - redundant load removal gains up to ~40% on mgrid and helps fp codes;
///   - the adaptive and custom-trace optimizations help integer codes;
///   - perlbmk and gcc (little code reuse) *slow down* under optimization;
///   - combined fp mean beats native; combined overall mean roughly
///     matches native, a ~12% improvement over base.
///
/// The bench exits non-zero unless the EXPERIMENTS.md shape checks hold:
/// the combined mean beats base by at least 10%, the combined fp mean is
/// under 1.0, and mgrid under all four optimizations is under 0.75. Emits
/// BENCH_figure5.json (bench/BenchJson.h rows `<workload>_<client>`, exact
/// simulated cycles and native cycles) for scripts/bench_compare.py.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

using namespace rio;

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_figure5.json";

  const ClientKind Kinds[] = {
      ClientKind::None,         ClientKind::Rlr,
      ClientKind::StrengthReduce, ClientKind::IBDispatch,
      ClientKind::CustomTraces, ClientKind::AllFour,
  };

  OutStream &OS = outs();
  OS.printf("Figure 5: normalized execution time (RIO-DYN time / native "
            "time; smaller is better)\n");
  OS.printf("Pentium 4 cost model, trace threshold 50, unlimited cache.\n\n");
  OS.printf("%-9s", "bench");
  for (ClientKind K : Kinds)
    OS.printf(" %12s", clientKindName(K));
  OS.printf("\n");

  std::vector<double> Mean[6];
  std::vector<double> MeanInt[6], MeanFp[6];
  std::vector<BenchRow> Rows;
  double MgridAll = 0;
  bool AllTransparent = true;

  for (const Workload &W : allWorkloads()) {
    OS.printf("%-9s", W.Name);
    for (size_t KI = 0; KI != std::size(Kinds); ++KI) {
      NormalizedRun R = measure(W, RuntimeConfig::full(), Kinds[KI]);
      if (!R.Transparent) {
        AllTransparent = false;
        OS.printf(" %12s", "FAIL");
        continue;
      }
      OS.printf(" %12.3f", R.Normalized);
      Rows.push_back({std::string(W.Name) + "_" + clientKindName(Kinds[KI]),
                      {{"cycles", R.Rio.Cycles},
                       {"native_cycles", R.Native.Cycles}},
                      {}});
      if (Kinds[KI] == ClientKind::AllFour && std::string(W.Name) == "mgrid")
        MgridAll = R.Normalized;
      Mean[KI].push_back(R.Normalized);
      (W.IsFp ? MeanFp[KI] : MeanInt[KI]).push_back(R.Normalized);
    }
    OS.printf("\n");
  }

  OS.printf("%-9s", "int-mean");
  for (size_t KI = 0; KI != std::size(Kinds); ++KI)
    OS.printf(" %12.3f", geomean(MeanInt[KI]));
  OS.printf("\n%-9s", "fp-mean");
  for (size_t KI = 0; KI != std::size(Kinds); ++KI)
    OS.printf(" %12.3f", geomean(MeanFp[KI]));
  OS.printf("\n%-9s", "mean");
  for (size_t KI = 0; KI != std::size(Kinds); ++KI)
    OS.printf(" %12.3f", geomean(Mean[KI]));
  OS.printf("\n\n");

  double Improvement = 1.0 - geomean(Mean[5]) / geomean(Mean[0]);
  double AllFp = geomean(MeanFp[5]);
  bool Shapes = Improvement >= 0.10 && AllFp < 1.0 && MgridAll > 0 &&
                MgridAll < 0.75;
  OS.printf("combined vs base improvement: %.1f%% (must be >= 10%%)\n",
            Improvement * 100.0);
  OS.printf("combined fp mean: %.3f (must be < 1.0)\n", AllFp);
  OS.printf("mgrid all4: %.3f (must be < 0.75)\n", MgridAll);
  OS.printf("transparency: %s\n", AllTransparent ? "all runs identical to "
                                                   "native output"
                                                 : "VIOLATED");
  OS.printf("shape checks: %s\n\n", Shapes ? "all hold" : "VIOLATED");
  return writeBenchJson(OutPath, Rows) && AllTransparent && Shapes ? 0 : 1;
}
