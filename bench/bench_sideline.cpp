//===- bench/bench_sideline.cpp - Sideline vs inline vs no client ------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures sideline re-optimization (paper Section 3.4) against running
/// without it and against the same client run inline. Three
/// indirect-branch-heavy workloads run three ways:
///
///   * off    — no client, no sideline: the raw runtime floor;
///   * inline — the same client (redundant load removal) transforms each
///              trace when it is built, on the application thread, and
///              pays for it;
///   * async  — traces are decoded when queued and, once the seeded
///             schedule says the sideline core is done, transformed on the
///             application thread at the publication point (cycles
///             refunded); publication swaps the link graph at that safe
///             point for SidelinePublishCost and moves suspended threads
///             onto the new version by on-stack replacement.
///
/// The bench hard-asserts the subsystem's contract on the simulated
/// clock: both runs are output-transparent, the sideline publishes at
/// least one version per workload, and its schedule is deterministic for
/// the fixed seed (two runs, bit-identical cycles).
///
/// The sideline does not beat the inline client on these workloads; the
/// printed "async-inline" column is its known cost, not a win.
///
/// Simulated cycles, publication, stale-drop and trace counts are exact and
/// diffable across commits; bench_compare.py gates them hard. Host wall
/// clock of each run only warns.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rio;

namespace {

/// Virtual dispatch: a tight loop over 16 "objects" whose type field
/// indexes a method table — 13 hot-class objects, 2 warm, 1 cold.
std::string vdispatchSource(int Outer) {
  return R"(
    .entry main
    types: .word 0 0 0 0 0 0 0 4 0 0 0 8 0 0 4 0
    vtable: .word m0 m1 m2
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Outer) + R"(
    outer:
      mov ebx, 0
    inner:
      mov ecx, [types+ebx]
      jmp [vtable+ecx]
    m0:
      add esi, 1
      jmp mret
    m1:
      add esi, 17
      jmp mret
    m2:
      add esi, 257
      jmp mret
    mret:
      add ebx, 4
      cmp ebx, 64
      jnz inner
      and esi, 0xFFFFFF
      dec ebp
      jnz outer
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
}

/// Ret-heavy call tree: three levels of calls, seven returns per
/// iteration through three ret sites.
std::string rettreeSource(int Iters) {
  return R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      call a
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    a:
      call b
      call b
      add esi, 5
      ret
    b:
      call leaf
      call leaf
      add esi, 7
      ret
    leaf:
      add esi, 3
      ret
  )";
}

/// Switch-dispatch interpreter: 64 bytecode slots fetched through one
/// indirect jump, four hot opcodes covering 60 of them.
std::string interpSource(int Outer) {
  std::string Code = "code: .word";
  int Slot = 0;
  int Remaining[] = {38, 12, 6, 6, 1, 1};
  while (Slot < 63) {
    int Pick = (Slot * 5 + 3) % 6;
    for (int Try = 0; Try != 6; ++Try, Pick = (Pick + 1) % 6)
      if (Remaining[Pick] > 0)
        break;
    --Remaining[Pick];
    Code += " " + std::to_string(Pick * 4);
    ++Slot;
  }
  Code += " 24\n"; // last slot: oploop
  return R"(
    .entry main
  )" + Code + R"(
    optable: .word op0 op1 op2 op3 op4 op5 oploop
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Outer) + R"(
      mov ebx, 0
    fetch:
      mov ecx, [code+ebx]
      add ebx, 4
      jmp [optable+ecx]
    op0:
      add esi, 1
      jmp fetch
    op1:
      add esi, 17
      jmp fetch
    op2:
      add esi, 257
      jmp fetch
    op3:
      add esi, 4097
      jmp fetch
    op4:
      add esi, 65537
      jmp fetch
    op5:
      and esi, 0xFFFFFF
      jmp fetch
    oploop:
      mov ebx, 0
      dec edi
      jnz fetch
      and esi, 0xFFFFFF
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
}

enum class Mode { Off, Inline, Async };

struct Sample {
  std::string Config;  ///< <workload>_{off,inline,async}
  uint64_t Cycles = 0; ///< simulated, full run — exact, gated
  uint64_t Published = 0;  ///< versions published (0 for off)
  uint64_t StaleDrops = 0; ///< queued work invalidated before publication
  uint64_t Traces = 0;     ///< traces built
  uint64_t HostNs = 0;     ///< host wall clock, warn-only
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void die(const std::string &Msg) {
  errs().printf("bench_sideline: %s\n", Msg.c_str());
  std::abort();
}

Sample runOnce(const std::string &Name, const Program &Prog, Mode How,
               const std::string &Expected) {
  static const char *const Suffix[] = {"_off", "_inline", "_async"};
  Sample Out;
  Out.Config = Name + Suffix[int(How)];
  Machine M;
  if (!loadProgram(M, Prog))
    die(Name + ": program too large");
  RlrClient Inner;
  uint64_t T0 = nowNs();
  RunResult R;
  if (How != Mode::Async) {
    Runtime RT(M, RuntimeConfig::full(),
               How == Mode::Inline ? &Inner : nullptr);
    R = RT.run();
    Out.Traces = RT.stats().get("traces_built");
  } else {
    SidelineOptimizer Side(Inner);
    RuntimeConfig Config = RuntimeConfig::full();
    Config.SidelinePump = &Side;
    Runtime RT(M, Config, &Side);
    R = runWithSideline(RT, Side);
    Out.Published = Side.versionsPublished();
    Out.StaleDrops = Side.staleDrops();
    Out.Traces = RT.stats().get("traces_built");
  }
  Out.HostNs = nowNs() - T0;
  if (R.Status != RunStatus::Exited)
    die(Out.Config + ": run did not exit: " + R.FaultReason);
  if (M.output() != Expected)
    die(Out.Config + ": transparency violated");
  Out.Cycles = R.Cycles;
  return Out;
}

BenchRow row(const Sample &S) {
  return {S.Config,
          {{"cycles", S.Cycles},
           {"published", S.Published},
           {"stale_drops", S.StaleDrops},
           {"traces", S.Traces}},
          {{"host_ns", S.HostNs}}};
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_sideline.json";
  OutStream &OS = outs();
  OS.printf("Sideline re-optimization (simulated cycles; "
            "client = redundant load removal)\n\n");
  OS.printf("%-10s %12s %12s %12s %6s %6s %13s\n", "workload", "off",
            "inline", "async", "pub", "drop", "async-inline");

  struct Spec {
    const char *Name;
    std::string Source;
  };
  const Spec Specs[] = {{"vdispatch", vdispatchSource(600)},
                        {"rettree", rettreeSource(1300)},
                        {"interp", interpSource(80)}};

  std::vector<BenchRow> Rows;
  for (const Spec &S : Specs) {
    Program Prog;
    std::string Error;
    if (!assemble(S.Source, Prog, Error))
      die(std::string(S.Name) + ": assembly failed: " + Error);
    Outcome Native = runNativeProgram(Prog);
    if (Native.Status != RunStatus::Exited)
      die(std::string(S.Name) + ": native run failed");

    Sample Off = runOnce(S.Name, Prog, Mode::Off, Native.Output);
    Sample Inline = runOnce(S.Name, Prog, Mode::Inline, Native.Output);
    Sample Async = runOnce(S.Name, Prog, Mode::Async, Native.Output);

    // The virtual-completion schedule is seeded: a second sideline run
    // must land on the identical simulated cycle count.
    Sample Again = runOnce(S.Name, Prog, Mode::Async, Native.Output);
    if (Again.Cycles != Async.Cycles || Again.Published != Async.Published)
      die(std::string(S.Name) + ": sideline schedule is not deterministic");
    if (Async.Published == 0)
      die(std::string(S.Name) + ": sideline published nothing");

    // Known cost, not a win: the sideline's cycles over the same client
    // run inline.
    OS.printf("%-10s %12llu %12llu %12llu %6llu %6llu %+12.2f%%\n", S.Name,
              (unsigned long long)Off.Cycles,
              (unsigned long long)Inline.Cycles,
              (unsigned long long)Async.Cycles,
              (unsigned long long)Async.Published,
              (unsigned long long)Async.StaleDrops,
              100.0 * (double(Async.Cycles) / double(Inline.Cycles) - 1.0));
    Rows.push_back(row(Off));
    Rows.push_back(row(Inline));
    Rows.push_back(row(Async));
  }

  return writeBenchJson(OutPath, Rows) ? 0 : 1;
}
