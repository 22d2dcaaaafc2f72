//===- bench/bench_persist.cpp - Persistent code cache warm-start wins -------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what a persistent code cache buys: each workload runs cold
/// (build everything, then serialize the warmed runtime) and warm (restore
/// the image into a fresh runtime, then run). The bench hard-asserts the
/// subsystem's contract on the simulated clock:
///
///   * a warm start builds nothing (basic_blocks_built == traces_built == 0)
///     and reaches the same output in strictly fewer simulated cycles;
///   * past warm-up, warm execution is bit-identical to cold execution —
///     shown on a data-scaled loop whose code bytes don't change with the
///     iteration count (the bound lives in a data word), so one image
///     serves every scale and the marginal cost of k extra iterations is
///     EXACTLY equal cold vs warm.
///
/// Simulated cycle counts (cold and warm), image sizes and restored
/// fragment counts are exact and diffable across commits; bench_compare.py
/// gates them hard. Host wall-clock for save and load only warns.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/Runtime.h"
#include "harness/Experiment.h"
#include "persist/CacheImage.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rio;
using namespace rio::persist;

namespace {

struct Sample {
  std::string Config;  ///< workload name, or dataloop_<iters>
  uint64_t CyclesCold; ///< simulated, full cold run — exact, gated
  uint64_t Cycles;     ///< simulated, warm-started run — exact, gated
  uint64_t ImageBytes; ///< serialized .riocache size — exact, gated
  uint64_t Fragments;  ///< fragments restored on the warm start — exact
  uint64_t SaveNs;     ///< host wall clock of CacheCodec::save, warn-only
  uint64_t LoadNs;     ///< host wall clock of CacheCodec::load, warn-only
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void die(const std::string &Msg) {
  errs().printf("bench_persist: %s\n", Msg.c_str());
  std::abort();
}

/// Cold run + save, warm run from the image, with the contract asserted.
/// \p Image may carry a previously saved image (loaded instead of the one
/// this cold run produces — used by the data-scaled loop); if empty it is
/// filled from this workload's own cold run.
Sample measure(const std::string &Name, const Program &Prog,
               std::vector<uint8_t> &Image) {
  Sample Out{Name, 0, 0, 0, 0, 0, 0};

  Machine Cold;
  if (!loadProgram(Cold, Prog))
    die(Name + ": program too large");
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime ColdRT(Cold, Config);
  RunResult ColdRes = ColdRT.run();
  if (ColdRes.Status != RunStatus::Exited)
    die(Name + ": cold run did not exit");
  Out.CyclesCold = ColdRes.Cycles;

  std::vector<uint8_t> Saved;
  uint64_t T0 = nowNs();
  if (!CacheCodec::save(ColdRT, Saved))
    die(Name + ": save refused on a finished runtime");
  Out.SaveNs = nowNs() - T0;
  if (Image.empty())
    Image = Saved;
  Out.ImageBytes = Image.size();

  Machine Warm;
  if (!loadProgram(Warm, Prog))
    die(Name + ": program too large");
  Runtime WarmRT(Warm, Config);
  T0 = nowNs();
  LoadStatus St = CacheCodec::load(WarmRT, Image.data(), Image.size());
  Out.LoadNs = nowNs() - T0;
  if (St != LoadStatus::Ok)
    die(Name + ": warm image rejected: " + loadStatusName(St));
  Out.Fragments = WarmRT.numFragments();

  RunResult WarmRes = WarmRT.run();
  if (WarmRes.Status != RunStatus::Exited)
    die(Name + ": warm run did not exit");
  Out.Cycles = WarmRes.Cycles;

  if (Warm.output() != Cold.output())
    die(Name + ": warm output diverged from cold");
  if (WarmRT.stats().get("basic_blocks_built") != 0 ||
      WarmRT.stats().get("traces_built") != 0)
    die(Name + ": warm start built fragments");
  if (WarmRes.Cycles >= ColdRes.Cycles)
    die(Name + ": warm start was not strictly cheaper");
  return Out;
}

/// The hot loop's code bytes are identical at every scale — only the data
/// word holding the iteration count changes — so the image saved at one
/// scale warm-starts every other, and marginal iteration cost is directly
/// comparable cold vs warm.
Program dataLoopProgram(unsigned Iters) {
  std::string Source = R"(
    .entry main
    count: .word )" + std::to_string(Iters) + R"(
    table: .word h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h1 h2 h3 h4
    main:
      mov esi, 0
      mov ebx, 0
      mov edi, [count]
    loop:
      mov ecx, ebx
      and ecx, 15
      shl ecx, 2
      add ebx, 1
      jmp [table+ecx]
    h0:
      add esi, 1
      jmp next
    h1:
      add esi, 17
      jmp next
    h2:
      add esi, 257
      jmp next
    h3:
      add esi, 4097
      jmp next
    h4:
      add esi, 65537
      jmp next
    next:
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  Program Prog;
  std::string Error;
  if (!assemble(Source, Prog, Error))
    die("dataloop assembly failed: " + Error);
  return Prog;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_persist.json";
  OutStream &OS = outs();
  OS.printf("Persistent code caches: cold build-everything vs warm restore\n");
  OS.printf("simulated cycles are exact; warm must be strictly cheaper\n\n");
  OS.printf("%-14s %12s %12s %9s %11s %9s %9s\n", "config", "cycles_cold",
            "cycles_warm", "fragments", "img_bytes", "save_ns", "load_ns");

  std::vector<BenchRow> Rows;
  auto Report = [&](const Sample &S) {
    OS.printf("%-14s %12llu %12llu %9llu %11llu %9llu %9llu\n",
              S.Config.c_str(), (unsigned long long)S.CyclesCold,
              (unsigned long long)S.Cycles, (unsigned long long)S.Fragments,
              (unsigned long long)S.ImageBytes, (unsigned long long)S.SaveNs,
              (unsigned long long)S.LoadNs);
    Rows.push_back({S.Config,
                    {{"image_bytes", S.ImageBytes},
                     {"cycles", S.Cycles},
                     {"cycles_cold", S.CyclesCold},
                     {"fragments", S.Fragments}},
                    {{"save_ns", S.SaveNs}, {"load_ns", S.LoadNs}}});
  };

  for (const char *Name : {"crafty", "vpr", "gap"}) {
    const Workload *W = findWorkload(Name);
    if (!W)
      die(std::string("unknown workload ") + Name);
    std::vector<uint8_t> Image;
    Report(measure(Name, buildWorkload(*W, 0), Image));
  }

  // Steady-state equivalence: one image (saved at the small scale) serves
  // both scales; the marginal cost of the extra 4096 iterations must be
  // EXACTLY the same cold and warm — the restored caches, head counters
  // and predictor tables place the warm run on the cold run's limit cycle.
  const unsigned K = 4096;
  std::vector<uint8_t> LoopImage;
  Sample Small = measure("dataloop_" + std::to_string(K), dataLoopProgram(K),
                         LoopImage);
  Sample Big = measure("dataloop_" + std::to_string(2 * K),
                       dataLoopProgram(2 * K), LoopImage);
  Report(Small);
  Report(Big);
  uint64_t ColdMarginal = Big.CyclesCold - Small.CyclesCold;
  uint64_t WarmMarginal = Big.Cycles - Small.Cycles;
  OS.printf("\nmarginal cost of %u extra iterations: cold %llu, warm %llu\n",
            K, (unsigned long long)ColdMarginal,
            (unsigned long long)WarmMarginal);
  if (ColdMarginal != WarmMarginal)
    die("steady-state divergence: warm execution is not bit-identical");

  return writeBenchJson(OutPath, Rows) ? 0 : 1;
}
