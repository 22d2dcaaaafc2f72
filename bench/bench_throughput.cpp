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
/// host overhead over the interpreter. The `straight-line` row is the bare
/// Machine on two loops of straight-line code, one of register arithmetic
/// and one of loads and stores: it tracks the per-instruction cost of the
/// interpreter's run path (see Machine::run) with no branches in between.
/// The `branchy` row is the bare Machine on a loop whose body holds two
/// conditional branches that fall through on most iterations: a run goes
/// on through a branch that falls through, so it tracks the same path
/// across branches.
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
#include "asm/Assembler.h"
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
  const std::vector<Program> *Programs = nullptr; ///< else the workload mix
};

struct Sample {
  std::string Config;
  uint64_t Instructions = 0;
  uint64_t WallNs = 0;
  double Mips = 0;
};

constexpr int Reps = 3;
constexpr const char *Workloads[] = {"crafty", "vpr", "gap"};

/// The straight-line row's programs: 12-instruction loop bodies, 100000
/// iterations each. The load/store loop's cells share a 256-byte line with
/// its code, as `.space` data placed before code does in most small
/// programs, so its stores also take the write monitor's slow path.
constexpr const char *StraightLine[] = {
    R"(
    main:
      mov eax, 1
      mov ebx, 2
      mov edx, 3
      mov esi, 4
      mov ecx, 100000
    loop:
      add eax, ebx
      xor edx, eax
      sub ebx, 3
      and esi, edx
      or eax, 5
      shl edx, 1
      add esi, eax
      mov edi, esi
      inc ebx
      imul edi, edi, 3
      dec ecx
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    )",
    R"(
    cells: .space 64
    main:
      mov ecx, 100000
      mov eax, 7
    loop:
      mov [cells], eax
      mov ebx, [cells]
      mov [cells+4], ebx
      mov edx, [cells+4]
      add edx, eax
      mov [cells+8], edx
      mov esi, [cells+8]
      mov [cells+12], esi
      push esi
      pop eax
      dec ecx
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    )",
};

/// The branchy row's program: a 15-instruction loop body, 100000
/// iterations, whose two mid-body branches are taken one iteration in 256
/// and one in 1024.
constexpr const char *Branchy[] = {
    R"(
    main:
      mov eax, 1
      mov ebx, 2
      mov edx, 3
      mov esi, 4
      mov ecx, 100000
    loop:
      add eax, ebx
      xor edx, eax
      test ecx, 255
      jz rare_a
    back_a:
      sub ebx, 3
      and esi, edx
      or eax, 5
      mov edi, ecx
      and edi, 1023
      jz rare_b
    back_b:
      shl edx, 1
      add esi, eax
      inc ebx
      dec ecx
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    rare_a:
      add esi, 1
      jmp back_a
    rare_b:
      sub esi, 1
      jmp back_b
    )",
};

/// Assembles the programs of the row named \p Row into \p Out.
template <size_t N>
bool assembleRow(const char *Row, const char *const (&Sources)[N],
                 std::vector<Program> &Out) {
  for (const char *Source : Sources) {
    Program P;
    std::string Error;
    if (!assemble(Source, P, Error)) {
      outs().printf("%s program: %s\n", Row, Error.c_str());
      return false;
    }
    Out.push_back(std::move(P));
  }
  return true;
}

Sample measureConfig(const BenchConfig &BC,
                     const std::vector<Program> &Mix) {
  Sample Best;
  Best.Config = BC.Name;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    uint64_t Instructions = 0;
    auto T0 = std::chrono::steady_clock::now();
    for (const Program &Prog : BC.Programs ? *BC.Programs : Mix) {
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

  std::vector<Program> Straight, Branches;
  if (!assembleRow("straight-line", StraightLine, Straight) ||
      !assembleRow("branchy", Branchy, Branches))
    return 1;

  RuntimeConfig Cache = RuntimeConfig::linkIndirect(); // links, no traces
  const BenchConfig Configs[] = {
      {"native", RuntimeConfig(), /*Native=*/true},
      {"emulate", RuntimeConfig::emulate()},
      {"cache", Cache},
      {"cache+traces", RuntimeConfig::full()},
      {"straight-line", RuntimeConfig(), /*Native=*/true, &Straight},
      {"branchy", RuntimeConfig(), /*Native=*/true, &Branches},
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
  OS.printf("workloads: crafty vpr gap (straight-line, branchy: their own "
            "loops); best of %d reps\n\n",
            Reps);
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
