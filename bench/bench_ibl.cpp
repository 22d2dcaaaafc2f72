//===- bench/bench_ibl.cpp - Adaptive IB inline-cache benchmark ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the adaptive indirect-branch inline caches (core/IbInline.cpp)
/// on three indirect-heavy shapes: virtual dispatch over a skewed class
/// mix, a ret-heavy call tree, and a switch-dispatch bytecode interpreter.
/// Each workload runs with the feature off and on under the cache+links
/// configuration (no traces, so every indirect branch goes through the
/// global IBL when the chains are off) and reports simulated cycles plus
/// the ib_inline_* counters.
///
/// Emits BENCH_ibl.json (bench/BenchJson.h rows, every field exact) for
/// scripts/bench_compare.py, and exits non-zero if the aggregate
/// on-vs-off cycle reduction falls under 15% — the chains must pay for
/// themselves, not just break even.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "asm/Assembler.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <string>
#include <vector>

using namespace rio;

namespace {

/// Virtual dispatch: a tight loop over 16 "objects" whose type field
/// indexes a method table. 13 objects are the hot class, 2 a warm one,
/// 1 a cold one — the polymorphic-in-name, monomorphic-in-practice shape
/// inline caches were invented for. The type words are pre-scaled by 4.
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

/// Ret-heavy call tree: a three-level binary tree of calls, seven returns
/// per iteration through three ret sites — the root's ret is monomorphic,
/// the inner node's and the leaf's rets each alternate between two return
/// points.
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

/// Switch-dispatch interpreter: a 64-instruction bytecode program fetched
/// through one indirect jump. Opcode frequencies follow the usual
/// interpreter profile — four hot opcodes cover 60 of 64 slots, the tail
/// opcodes and the backward-branch pseudo-op stay outside the chain.
std::string interpSource(int Outer) {
  // 64 pre-scaled opcode words: 38 x op0, 12 x op1, 6 x op2, 6 x op3,
  // 1 x op4, 1 x op5, 1 x oploop (which rewinds the bytecode pc) — the
  // usual interpreter profile, where a handful of opcodes carry the run.
  std::string Code = "code: .word";
  int Slot = 0;
  // Interleave deterministically so hot and cold opcodes alternate the way
  // a real instruction stream does rather than running in sorted blocks.
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

BenchRow row(const std::string &Config, const Outcome &Run) {
  BenchFields Exact = {{"cycles", Run.Cycles}};
  for (const char *Stat : {"ib_inline_hits", "ib_inline_misses",
                           "ib_inline_rewrites", "ib_inline_chain_evictions"})
    Exact.push_back({Stat, Run.Stats.get(Stat)});
  return {Config, std::move(Exact), {}};
}

bool runPair(const char *Name, const std::string &Source,
             std::vector<BenchRow> &Rows, uint64_t &OffTotal,
             uint64_t &OnTotal) {
  OutStream &OS = outs();
  Program Prog;
  std::string Error;
  if (!assemble(Source, Prog, Error)) {
    OS.printf("%s: assembly failed: %s\n", Name, Error.c_str());
    return false;
  }
  Outcome Native = runNativeProgram(Prog);
  if (Native.Status != RunStatus::Exited) {
    OS.printf("%s: native run failed\n", Name);
    return false;
  }

  RuntimeConfig Off = RuntimeConfig::linkIndirect();
  RuntimeConfig On = Off;
  On.IbInline = true;

  Outcome OffRun = runUnderRuntime(Prog, Off, ClientKind::None);
  Outcome OnRun = runUnderRuntime(Prog, On, ClientKind::None);
  if (OffRun.Status != RunStatus::Exited || OffRun.Output != Native.Output ||
      OnRun.Status != RunStatus::Exited || OnRun.Output != Native.Output) {
    OS.printf("%s: transparency violated\n", Name);
    return false;
  }

  Rows.push_back(row(std::string(Name) + "_off", OffRun));
  Rows.push_back(row(std::string(Name) + "_on", OnRun));

  OffTotal += OffRun.Cycles;
  OnTotal += OnRun.Cycles;

  double Reduction =
      100.0 * (double(OffRun.Cycles) - double(OnRun.Cycles)) /
      double(OffRun.Cycles);
  OS.printf("%-10s %12llu %12llu %+9.1f%% %8llu %8llu %4llu\n", Name,
            (unsigned long long)OffRun.Cycles,
            (unsigned long long)OnRun.Cycles, -Reduction,
            (unsigned long long)OnRun.Stats.get("ib_inline_hits"),
            (unsigned long long)OnRun.Stats.get("ib_inline_misses"),
            (unsigned long long)OnRun.Stats.get("ib_inline_rewrites"));
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_ibl.json";
  OutStream &OS = outs();

  OS.printf("Adaptive indirect-branch inline caches (cache+links, "
            "simulated cycles)\n\n");
  OS.printf("%-10s %12s %12s %10s %8s %8s %4s\n", "workload", "off", "on",
            "delta", "hits", "misses", "rw");

  // Scales are chosen so each workload contributes a comparable share of
  // off-mode cycles; the aggregate is then a cycle-weighted average over
  // the three shapes rather than an artifact of iteration counts.
  std::vector<BenchRow> Rows;
  uint64_t OffTotal = 0, OnTotal = 0;
  bool Ok = true;
  Ok &= runPair("vdispatch", vdispatchSource(600), Rows, OffTotal, OnTotal);
  Ok &= runPair("rettree", rettreeSource(1300), Rows, OffTotal, OnTotal);
  Ok &= runPair("interp", interpSource(80), Rows, OffTotal, OnTotal);
  if (!Ok)
    return 1;

  double Reduction =
      100.0 * (double(OffTotal) - double(OnTotal)) / double(OffTotal);
  OS.printf("\naggregate: off=%llu on=%llu (%.1f%% cycle reduction)\n",
            (unsigned long long)OffTotal, (unsigned long long)OnTotal,
            Reduction);

  if (!writeBenchJson(OutPath, Rows))
    return 1;

  if (Reduction < 15.0) {
    OS.printf("FAIL: aggregate reduction %.1f%% is under the 15%% floor\n",
              Reduction);
    return 1;
  }
  return 0;
}
