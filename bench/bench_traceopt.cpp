//===- bench/bench_traceopt.cpp - Trace optimizer wins --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the trace optimizer (core/TraceOpt.h) buys on top of the
/// asynchronous sideline. Three loop-heavy workloads, each leaning on one
/// pass of the pipeline, run two ways:
///
///   * base     — async sideline with a no-op client: traces are decoded,
///                "re-optimized" unchanged, and republished. This prices
///                the publication machinery identically to the optimized
///                runs, so the delta is the optimizer's, not the sideline's;
///   * traceopt — async sideline with the optimizer: redundant load
///                removal/forwarding, constant propagation, dead-store
///                elimination, inc/dec strength reduction.
///
/// The bench hard-asserts the subsystem's contract on the simulated clock:
/// both modes are output-transparent, every workload gets faster, and the
/// optimizer cuts aggregate simulated cycles by at least 10% against base.
///
/// Simulated cycles, publication and trace counts are exact and diffable
/// across commits; bench_compare.py gates them hard. Host wall clock only
/// warns.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rio;

namespace {

/// Redundant-load heavy: five loads per iteration from two sites, three of
/// them removable by forwarding.
std::string redloadSource(int Iters) {
  return R"(
    .entry main
    a: .word 7
    b: .word 11
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Iters) + R"(
    loop:
      mov eax, [a]
      add esi, eax
      mov ecx, [a]
      add esi, ecx
      mov edx, [a]
      add esi, edx
      mov eax, [b]
      add esi, eax
      mov ecx, [b]
      add esi, ecx
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

/// inc/dec chains: six convertible incs and one convertible dec per
/// iteration; the backedge's own dec stays (a CTI follows it immediately,
/// so the stale carry could escape). Each conversion saves IncDecExtra
/// cycles under the default Pentium 4 cost model.
std::string incdecSource(int Iters) {
  return R"(
    .entry main
    main:
      mov esi, 0
      mov eax, 0
      mov ebp, )" + std::to_string(Iters) + R"(
    loop:
      inc eax
      inc eax
      inc eax
      inc eax
      inc eax
      inc eax
      dec esi
      add esi, eax
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

/// Dead stores plus a loop-invariant load: two of three same-slot stores
/// per iteration are dead, and the two [c] loads collapse to one.
std::string deadstoreSource(int Iters) {
  return R"(
    .entry main
    t: .word 0
    c: .word 5
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Iters) + R"(
    loop:
      mov [t], ebp
      mov [t], esi
      mov edx, [c]
      add esi, edx
      mov edx, [c]
      add esi, edx
      mov [t], esi
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

struct Sample {
  std::string Config;      ///< <workload>_{base,traceopt}
  uint64_t Cycles = 0;     ///< simulated, full run — exact, gated
  uint64_t Published = 0;  ///< sideline versions published
  uint64_t Traces = 0;     ///< traces built
  uint64_t HostNs = 0;     ///< host wall clock, warn-only
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void die(const std::string &Msg) {
  errs().printf("bench_traceopt: %s\n", Msg.c_str());
  std::abort();
}

Sample runOnce(const std::string &Name, const Program &Prog, bool Optimize,
               const std::string &Expected) {
  Sample Out;
  Out.Config = Name + (Optimize ? "_traceopt" : "_base");
  Machine M;
  if (!loadProgram(M, Prog))
    die(Name + ": program too large");

  NullClient Null;
  TraceOptClient TraceOpt;
  Client &Inner = Optimize ? static_cast<Client &>(TraceOpt) : Null;

  SidelineOptimizer Sideline(Inner, SidelineMode::Async);
  RuntimeConfig Config = RuntimeConfig::full();
  Config.SidelinePump = &Sideline;
  Runtime RT(M, Config, &Sideline);

  uint64_t T0 = nowNs();
  RunResult R = runWithSideline(RT, Sideline);
  Out.HostNs = nowNs() - T0;
  if (R.Status != RunStatus::Exited)
    die(Out.Config + ": run did not exit: " + R.FaultReason);
  if (M.output() != Expected)
    die(Out.Config + ": transparency violated");
  Out.Cycles = R.Cycles;
  Out.Published = Sideline.versionsPublished();
  Out.Traces = RT.stats().get("traces_built");
  return Out;
}

BenchRow row(const Sample &S) {
  return {S.Config,
          {{"cycles", S.Cycles},
           {"published", S.Published},
           {"traces", S.Traces}},
          {{"host_ns", S.HostNs}}};
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_traceopt.json";
  OutStream &OS = outs();
  OS.printf("Trace optimizer (simulated cycles; sideline = async in both "
            "modes)\n\n");
  OS.printf("%-10s %12s %12s\n", "workload", "base", "traceopt");

  struct Spec {
    const char *Name;
    std::string Source;
  };
  const Spec Specs[] = {{"redload", redloadSource(4000)},
                        {"incdec", incdecSource(4000)},
                        {"deadstore", deadstoreSource(4000)}};

  std::vector<BenchRow> Rows;
  uint64_t BaseTotal = 0, OptTotal = 0;
  for (const Spec &S : Specs) {
    Program Prog;
    std::string Error;
    if (!assemble(S.Source, Prog, Error))
      die(std::string(S.Name) + ": assembly failed: " + Error);
    Outcome Native = runNativeProgram(Prog);
    if (Native.Status != RunStatus::Exited)
      die(std::string(S.Name) + ": native run failed");

    Sample Base = runOnce(S.Name, Prog, false, Native.Output);
    Sample Opt = runOnce(S.Name, Prog, true, Native.Output);

    if (Base.Published == 0)
      die(std::string(S.Name) + ": base sideline published nothing");
    if (Opt.Cycles >= Base.Cycles)
      die(std::string(S.Name) + ": traceopt did not beat base");

    BaseTotal += Base.Cycles;
    OptTotal += Opt.Cycles;
    OS.printf("%-10s %12llu %12llu\n", S.Name, (unsigned long long)Base.Cycles,
              (unsigned long long)Opt.Cycles);
    Rows.push_back(row(Base));
    Rows.push_back(row(Opt));
  }

  double Reduction = 100.0 * double(BaseTotal - OptTotal) / double(BaseTotal);
  OS.printf("\naggregate: base %llu -> traceopt %llu cycles (-%.1f%%)\n",
            (unsigned long long)BaseTotal, (unsigned long long)OptTotal,
            Reduction);
  if (Reduction < 10.0)
    die("the optimizer must cut aggregate cycles by at least 10%");

  return writeBenchJson(OutPath, Rows) ? 0 : 1;
}
