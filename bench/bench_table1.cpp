//===- bench/bench_table1.cpp - Paper Table 1 reproduction -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 1: normalized execution time as features
/// are added to the base interpreter, measured on crafty and vpr.
///
///   Emulation                ~300x
///   + Basic block cache      ~26x
///   + Link direct branches   5.1x / 3.0x
///   + Link indirect branches 2.0x / 1.2x
///   + Traces                 1.7x / 1.1x
///
/// Each rung must strictly dominate the next on both workloads; the bench
/// exits non-zero if one does not. Emits BENCH_table1.json (bench/BenchJson.h
/// rows `<bench>_<rung>`, exact simulated cycles and native cycles) for
/// scripts/bench_compare.py.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

using namespace rio;

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_table1.json";

  struct Rung {
    const char *Name;
    const char *Key; ///< the row suffix: riodyn's -config name
    RuntimeConfig Config;
  };
  const Rung Rungs[] = {
      {"Emulation", "emulate", RuntimeConfig::emulate()},
      {"+ Basic block cache", "bbcache", RuntimeConfig::bbCacheOnly()},
      {"+ Link direct branches", "linkdirect", RuntimeConfig::linkDirect()},
      {"+ Link indirect branches", "linkindirect",
       RuntimeConfig::linkIndirect()},
      {"+ Traces", "full", RuntimeConfig::full()},
  };
  const char *Benches[] = {"crafty", "vpr"};

  OutStream &OS = outs();
  OS.printf("Table 1: normalized execution time as interpreter features are "
            "added\n\n");
  OS.printf("%-28s %10s %10s\n", "System Type", "crafty", "vpr");

  std::vector<BenchRow> Rows;
  double Prev[std::size(Benches)] = {};
  bool Transparent = true, Dominates = true;
  for (const Rung &R : Rungs) {
    OS.printf("%-28s", R.Name);
    for (size_t BI = 0; BI != std::size(Benches); ++BI) {
      const Workload *W = findWorkload(Benches[BI]);
      NormalizedRun Run = measure(*W, R.Config, ClientKind::None);
      Transparent = Transparent && Run.Transparent;
      if (&R != &Rungs[0] && Run.Normalized >= Prev[BI])
        Dominates = false;
      Prev[BI] = Run.Normalized;
      OS.printf(" %10.1f", Run.Normalized);
      Rows.push_back({std::string(Benches[BI]) + "_" + R.Key,
                      {{"cycles", Run.Rio.Cycles},
                       {"native_cycles", Run.Native.Cycles}},
                      {}});
    }
    OS.printf("\n");
  }
  OS.printf("\ntransparency: %s\n",
            Transparent ? "all runs identical to native output" : "VIOLATED");
  OS.printf("every rung strictly dominates the next: %s\n\n",
            Dominates ? "yes" : "NO");
  return writeBenchJson(OutPath, Rows) && Transparent && Dominates ? 0 : 1;
}
