//===- bench/bench_table2.cpp - Paper Table 2 reproduction -------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 2: average time and memory used to decode
/// and then encode the basic blocks of the benchmark suite at each of the
/// five levels of instruction representation.
///
/// This experiment exercises *our* decoder/encoder, the machinery the
/// paper's Section 3.1 is about, so time is measured for real (wall clock)
/// and memory is counted in arena bytes. Expected shape:
///
///   - time rises with level; the big jump is Level 3 -> 4 (full encode
///     replaces a raw-byte copy);
///   - memory jumps at Level 1 (per-instruction Instrs) and again at
///     Level 3 (dynamically allocated operand arrays), flat at 2 and 4.
///
/// The memory staircase is asserted (exit 1 if it does not hold). Emits
/// BENCH_table2.json (bench/BenchJson.h rows `level<N>`: exact blocks,
/// arena bytes and encoded bytes summed over the corpus; host ns per block,
/// best of several passes) for scripts/bench_compare.py.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "ir/Build.h"
#include "ir/Emit.h"
#include "support/OutStream.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace rio;

namespace {

/// One basic block harvested from a workload run.
struct BlockRef {
  const Machine *M;
  AppPc Tag;
  unsigned MaxInstrs;
};

/// The harvested corpus (all basic blocks of all workloads) plus the
/// machines owning the application images.
struct Corpus {
  std::vector<std::unique_ptr<Machine>> Machines;
  std::vector<BlockRef> Blocks;
};

Corpus harvest() {
  Corpus Built;
  for (const Workload &W : allWorkloads()) {
    Program Prog = buildWorkload(W, W.TestScale);
    auto M = std::make_unique<Machine>();
    if (!loadProgram(*M, Prog))
      continue;
    Runtime RT(*M, RuntimeConfig::linkDirect());
    RunResult R = RT.run();
    if (R.Status != RunStatus::Exited)
      continue;
    RT.forEachFragment([&](const Fragment &Frag) {
      if (Frag.FragKind == Fragment::Kind::BasicBlock)
        Built.Blocks.push_back({M.get(), Frag.Tag, RT.config().MaxBlockInstrs});
    });
    Built.Machines.push_back(std::move(M));
  }
  return Built;
}

/// Totals of one decode-then-encode pass over the corpus.
struct PassTotals {
  uint64_t Blocks = 0;       ///< blocks lifted and encoded
  uint64_t ArenaBytes = 0;   ///< arena bytes + list header, summed
  uint64_t EncodedBytes = 0; ///< encoded block bytes, summed
};

/// Decode-then-encode every harvested block at \p Level once.
PassTotals decodeEncodeAll(const Corpus &C, LiftLevel Level, Arena &A) {
  PassTotals T;
  uint8_t Out[4096];
  for (const BlockRef &B : C.Blocks) {
    A.reset();
    InstrList IL(A);
    BlockScan Scan;
    if (!liftBlock(IL, B.M->mem(), B.M->runtimeBase(), B.Tag, B.MaxInstrs,
                   Level, Scan))
      continue;
    EmitResult Placement;
    if (!layoutInstrList(IL, B.Tag, /*AllowShortBranches=*/false,
                         Placement) ||
        Placement.TotalSize > sizeof(Out) ||
        !writeInstrList(Placement, B.Tag, Out))
      continue;
    ++T.Blocks;
    T.ArenaBytes += A.bytesUsed() + sizeof(InstrList);
    T.EncodedBytes += Placement.TotalSize;
  }
  return T;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_table2.json";
  Corpus C = harvest();
  size_t NumBlocks = C.Blocks.size();

  OutStream &OS = outs();
  OS.printf("Table 2: decode-then-encode of %zu basic blocks "
            "(%zu workloads)\n\n",
            NumBlocks, allWorkloads().size());
  OS.printf("%5s %14s %16s %14s\n", "Level", "Time (us)", "Memory (bytes)",
            "Encoded (B)");

  std::vector<BenchRow> Rows;
  uint64_t Memory[5] = {};
  Arena A(1u << 16);
  for (int Level = 0; Level <= 4; ++Level) {
    PassTotals T = decodeEncodeAll(C, LiftLevel(Level), A);
    Memory[Level] = T.ArenaBytes;

    // Best of several passes: host noise only ever adds time.
    uint64_t BestNs = ~uint64_t(0);
    for (int Pass = 0; Pass != 15; ++Pass) {
      auto Start = std::chrono::steady_clock::now();
      decodeEncodeAll(C, LiftLevel(Level), A);
      auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
      BestNs = std::min(BestNs, uint64_t(Ns));
    }
    uint64_t NsPerBlock = T.Blocks ? BestNs / T.Blocks : 0;

    OS.printf("%5d %14.3f %16.2f %14.2f\n", Level, double(NsPerBlock) / 1000.0,
              double(T.ArenaBytes) / double(T.Blocks),
              double(T.EncodedBytes) / double(T.Blocks));
    Rows.push_back({"level" + std::to_string(Level),
                    {{"blocks", T.Blocks},
                     {"arena_bytes", T.ArenaBytes},
                     {"encoded_bytes", T.EncodedBytes}},
                    {{"ns_per_block", NsPerBlock}}});
  }

  bool Staircase = Memory[1] > Memory[0] && Memory[2] == Memory[1] &&
                   Memory[3] > Memory[2] && Memory[4] == Memory[3];
  OS.printf("\nShape check (memory steps at levels 1 and 3, flat at 2 and "
            "4): %s\n",
            Staircase ? "holds" : "FAILS");
  return writeBenchJson(OutPath, Rows) && Staircase ? 0 : 1;
}
