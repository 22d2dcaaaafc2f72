//===- bench/bench_cache_mgmt.cpp - Bounded caches and consistency --------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the code-cache management subsystem (paper Section 6's future
/// directions: bounded caches and cache consistency):
///
///   1. Capacity. The cachepressure workload (a hot core plus a
///      pseudo-random call stream whose fragments overflow the bounded
///      block cache) runs at several cache bounds. A full cache makes room
///      by incremental FIFO eviction, retiring only the oldest fragments so
///      the rest of the translated working set stays warm.
///
///   2. Consistency. The smc workload repeatedly overwrites a function
///      it then calls. Output must match native (stale code would change
///      the checksum), and the write monitor must invalidate only the
///      fragments overlapping each write, not the whole cache.
///
/// Takes one argument, the JSON output path (default BENCH_cache_mgmt.json),
/// and writes one {config, exact, host} row per run (bench/BenchJson.h);
/// gate it with scripts/bench_compare.py against
/// bench/BENCH_cache_mgmt.baseline.json. Exits non-zero if any transparency
/// or precision check fails.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"
#include "workloads/Workloads.h"

#include <string>
#include <vector>

using namespace rio;

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_cache_mgmt.json";
  OutStream &OS = outs();
  bool Pass = true;
  std::vector<BenchRow> Rows;

  const Workload *Pressure = findWorkload("cachepressure");
  const Workload *Smc = findWorkload("smc");
  if (!Pressure || !Smc) {
    OS.printf("cache workloads missing from registry\n");
    return 1;
  }

  //===------------------------------------------------------------------===//
  // 1. FIFO eviction under cache pressure.
  //===------------------------------------------------------------------===//

  OS.printf("Cache capacity: incremental FIFO eviction\n");
  OS.printf("cachepressure workload, bounded basic-block cache\n\n");
  OS.printf("%8s  %12s %8s %13s  %s\n", "bbcache", "cycles", "evicts",
            "evicted-bytes", "output");

  Program Prog = buildWorkload(*Pressure, Pressure->DefaultScale);
  Outcome Native = runNativeProgram(Prog);
  for (uint32_t BbBytes : {4 * 1024u, 6 * 1024u, 8 * 1024u}) {
    RuntimeConfig Config = RuntimeConfig::full();
    Config.BbCacheSize = BbBytes;
    Outcome Fifo = runUnderRuntime(Prog, Config, ClientKind::None);

    bool Ok = Fifo.Status == RunStatus::Exited && Fifo.Output == Native.Output;
    uint64_t Evictions = Fifo.Stats.get("cache_evictions");
    uint64_t EvictedBytes = Fifo.Stats.get("cache_evicted_bytes");
    OS.printf("%8u  %12llu %8llu %13llu  %s\n", BbBytes,
              (unsigned long long)Fifo.Cycles, (unsigned long long)Evictions,
              (unsigned long long)EvictedBytes,
              Ok ? "native" : "TRANSPARENCY FAIL");
    Rows.push_back({"cachepressure_bb" + std::to_string(BbBytes),
                    {{"cycles", Fifo.Cycles},
                     {"evictions", Evictions},
                     {"evicted_bytes", EvictedBytes},
                     {"output_equals_native", Ok}},
                    {}});
    Pass = Pass && Ok;
  }

  //===------------------------------------------------------------------===//
  // 1b. Caches smaller than a client-grown trace.
  //===------------------------------------------------------------------===//

  // Under all four paper clients, mesa's and ammp's hot traces outgrow a
  // 1 or 2 KB trace cache. Such a trace is abandoned (its blocks keep
  // running from the block cache), never a guest fault.
  OS.printf("\nCaches smaller than a trace: all four clients\n\n");
  OS.printf("%8s %6s  %12s %9s %8s  %s\n", "program", "cache", "cycles",
            "abandoned", "traces", "output");
  for (const char *Name : {"mesa", "ammp"}) {
    const Workload *W = findWorkload(Name);
    if (!W) {
      OS.printf("%s missing from registry\n", Name);
      return 1;
    }
    Program P = buildWorkload(*W, W->DefaultScale);
    Outcome N = runNativeProgram(P);
    for (uint32_t Bytes : {1024u, 2048u}) {
      RuntimeConfig Config = RuntimeConfig::full();
      Config.BbCacheSize = Config.TraceCacheSize = Bytes;
      Outcome R = runUnderRuntime(P, Config, ClientKind::AllFour);
      bool Ok = R.Status == RunStatus::Exited && R.Output == N.Output &&
                R.ExitCode == N.ExitCode;
      uint64_t Abandoned = R.Stats.get("traces_abandoned");
      uint64_t Traces = R.Stats.get("traces_built");
      OS.printf("%8s %6u  %12llu %9llu %8llu  %s\n", Name, Bytes,
                (unsigned long long)R.Cycles, (unsigned long long)Abandoned,
                (unsigned long long)Traces,
                Ok ? "native" : "TRANSPARENCY FAIL");
      Rows.push_back({std::string(Name) + "_all4_" + std::to_string(Bytes),
                      {{"cycles", R.Cycles},
                       {"traces_abandoned", Abandoned},
                       {"traces_built", Traces},
                       {"output_equals_native", Ok}},
                      {}});
      Pass = Pass && Ok && Abandoned > 0;
    }
  }

  //===------------------------------------------------------------------===//
  // 2. Self-modifying code consistency.
  //===------------------------------------------------------------------===//

  Program SmcProg = buildWorkload(*Smc, Smc->DefaultScale);
  Outcome SmcNative = runNativeProgram(SmcProg);
  Outcome SmcRio =
      runUnderRuntime(SmcProg, RuntimeConfig::full(), ClientKind::None);

  uint64_t Writes = SmcRio.Stats.get("smc_code_writes");
  uint64_t Invalidations = SmcRio.Stats.get("smc_invalidations");
  uint64_t Built = SmcRio.Stats.get("basic_blocks_built") +
                   SmcRio.Stats.get("traces_built");
  bool SmcTransparent = SmcRio.Status == RunStatus::Exited &&
                        SmcRio.Output == SmcNative.Output;
  // Precise invalidation: only fragments overlapping the written region
  // die, so invalidations stay below the total fragment population.
  bool SmcPrecise = Invalidations > 0 && Invalidations < Built;
  Rows.push_back({"smc",
                  {{"cycles", SmcRio.Cycles},
                   {"code_writes", Writes},
                   {"invalidations", Invalidations},
                   {"fragments_built", Built}},
                  {}});

  OS.printf("\nCache consistency: self-modifying code\n");
  OS.printf("  code writes detected:  %llu\n", (unsigned long long)Writes);
  OS.printf("  fragments invalidated: %llu (of %llu built)\n",
            (unsigned long long)Invalidations, (unsigned long long)Built);
  OS.printf("  transparency: %s\n",
            SmcTransparent ? "output identical to native" : "VIOLATED");
  OS.printf("  precision:    %s\n",
            SmcPrecise ? "only overlapping fragments invalidated"
                       : "FAIL (flushed too much or nothing)");
  Pass = Pass && SmcTransparent && SmcPrecise;

  OS.printf("\n%s\n", Pass ? "PASS: FIFO eviction transparent at every "
                             "bound; SMC handled precisely"
                           : "FAIL");
  if (!writeBenchJson(OutPath, Rows))
    return 1;
  return Pass ? 0 : 1;
}
