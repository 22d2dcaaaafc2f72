//===- bench/bench_throughput.cpp - Host-side simulator throughput -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how fast the *simulator itself* runs on the host: simulated
/// instructions per host wall-clock second (MIPS), per runtime
/// configuration. Every other bench reports simulated cycles — this one
/// guards the infrastructure's own speed, which the hot-path structures
/// (interned stat handles, the flat fragment/IBL table, the pre-decoded
/// decode cache, the stop-set run loop) exist to improve. Simulated
/// results must not change when host speed does; the stats-parity test
/// pins that.
///
/// The `native` row is the bare Machine driven through Machine::run() with
/// no runtime: the gap between it and the cached rows is the runtime's own
/// host overhead over the interpreter.
///
/// Emits BENCH_throughput.json (bench/BenchJson.h rows: exact simulated
/// instructions, host wall_ns) for scripts/bench_compare.py to diff across
/// commits, and prints a human-readable table with MIPS. Each
/// configuration runs REPS times over the workload mix; the fastest
/// repetition is reported (the usual way to strip scheduler noise from a
/// throughput number).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <string>
#include <vector>

using namespace rio;

namespace {

struct BenchConfig {
  const char *Name;
  RuntimeConfig Config;
  bool Native = false; ///< run the bare Machine; Config is unused
};

struct Sample {
  std::string Config;
  uint64_t Instructions = 0;
  uint64_t WallNs = 0;
  double Mips = 0;
};

constexpr int Reps = 3;
constexpr const char *Workloads[] = {"crafty", "vpr", "gap"};

Sample measureConfig(const BenchConfig &BC,
                     const std::vector<Program> &Programs) {
  Sample Best;
  Best.Config = BC.Name;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    uint64_t Instructions = 0;
    auto T0 = std::chrono::steady_clock::now();
    for (const Program &Prog : Programs) {
      Outcome O = BC.Native
                      ? runNativeProgram(Prog)
                      : runUnderRuntime(Prog, BC.Config, ClientKind::None);
      if (O.Status != RunStatus::Exited)
        return Best; // leaves mips at 0: visibly broken in the output
      Instructions += O.Instructions;
    }
    auto T1 = std::chrono::steady_clock::now();
    uint64_t WallNs = uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count());
    if (WallNs == 0)
      WallNs = 1;
    double Mips = double(Instructions) * 1000.0 / double(WallNs);
    if (Mips > Best.Mips) {
      Best.Instructions = Instructions;
      Best.WallNs = WallNs;
      Best.Mips = Mips;
    }
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_throughput.json";
  OutStream &OS = outs();

  RuntimeConfig Cache = RuntimeConfig::linkIndirect(); // links, no traces
  const BenchConfig Configs[] = {
      {"native", RuntimeConfig(), /*Native=*/true},
      {"emulate", RuntimeConfig::emulate()},
      {"cache", Cache},
      {"cache+traces", RuntimeConfig::full()},
  };

  std::vector<Program> Programs;
  for (const char *Name : Workloads) {
    const Workload *W = findWorkload(Name);
    if (!W) {
      OS.printf("unknown workload %s\n", Name);
      return 1;
    }
    Programs.push_back(buildWorkload(*W, 0));
  }

  OS.printf("Host throughput (simulated instructions / host second)\n");
  OS.printf("workloads: crafty vpr gap; best of %d reps\n\n", Reps);
  OS.printf("%-14s %14s %14s %10s\n", "config", "sim instrs", "wall ms",
            "MIPS");

  std::vector<BenchRow> Rows;
  bool Ok = true;
  for (const BenchConfig &BC : Configs) {
    Sample S = measureConfig(BC, Programs);
    Ok = Ok && S.Mips > 0;
    OS.printf("%-14s %14llu %14.2f %10.2f\n", S.Config.c_str(),
              (unsigned long long)S.Instructions,
              double(S.WallNs) / 1e6, S.Mips);
    Rows.push_back({S.Config,
                    {{"instructions", S.Instructions}},
                    {{"wall_ns", S.WallNs}}});
  }

  OS.printf("\n");
  return writeBenchJson(OutPath, Rows) && Ok ? 0 : 1;
}
