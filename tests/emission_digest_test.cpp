//===- tests/emission_digest_test.cpp - Emitted-fragment goldens -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins everything fragment emission produces. Every registered program at
/// test scale (the 22 SPEC-style workloads plus smc and cachepressure) runs
/// under two configurations:
///
///   - cold start: full() + all four paper clients with 16 KB / 8 KB block
///     and trace caches, so eviction and SMC invalidation re-emit code;
///   - adaptive IB: full() + IB inline caches + the sideline over the trace
///     optimizer, so rewritten and published bodies are emitted.
///
/// For each run the digest folds the run's exit status, exit code and
/// cycles, then, for every live fragment in build order, its tag, kind,
/// cache address and sizes, its cache bytes (body and stubs), its CodeMap
/// and its AppRanges. A change to how fragments are laid out, encoded or
/// described moves the digest; a pure host-side speed-up must not.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <iterator>
#include <optional>
#include <vector>

using namespace rio;

namespace {

/// 64-bit FNV-1a over values folded in one at a time.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void bytes(const uint8_t *P, size_t N) {
    for (size_t I = 0; I != N; ++I)
      H = (H ^ P[I]) * 0x100000001b3ull;
  }
  void word(uint64_t V) {
    uint8_t B[8];
    for (unsigned I = 0; I != 8; ++I)
      B[I] = uint8_t(V >> (8 * I));
    bytes(B, 8);
  }
};

enum class Setup { ColdStart, AdaptiveIb };

uint64_t digestRun(const Workload &W, Setup S) {
  Machine M;
  EXPECT_TRUE(loadProgram(M, buildWorkload(W, W.TestScale))) << W.Name;
  RuntimeConfig C = RuntimeConfig::full();
  std::optional<ClientBundle> Bundle;
  std::optional<TraceOptClient> TraceOpt;
  std::optional<SidelineOptimizer> Sideline;
  Client *Top = nullptr;
  if (S == Setup::ColdStart) {
    C.BbCacheSize = 16u << 10;
    C.TraceCacheSize = 8u << 10;
    Top = Bundle.emplace(ClientKind::AllFour).client();
  } else {
    C.IbInline = true;
    TraceOpt.emplace();
    Sideline.emplace(*TraceOpt);
    C.SidelinePump = &*Sideline;
    Top = &*Sideline;
  }
  Runtime RT(M, C, Top);
  RunResult R = Sideline ? runWithSideline(RT, *Sideline) : RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited) << W.Name << ": " << R.FaultReason;

  Digest D;
  D.word(uint64_t(R.Status));
  D.word(uint64_t(int64_t(R.ExitCode)));
  D.word(R.Cycles);
  std::vector<uint8_t> Bytes;
  RT.forEachFragment([&](const Fragment &F) {
    D.word(F.Tag);
    D.word(uint64_t(F.FragKind));
    D.word(F.CacheAddr);
    D.word(F.CodeSize);
    D.word(F.StubsSize);
    Bytes.resize(F.CodeSize + F.StubsSize);
    M.mem().readBlock(F.CacheAddr, Bytes.data(), uint32_t(Bytes.size()));
    D.bytes(Bytes.data(), Bytes.size());
    D.word(F.CodeMap.size());
    for (const CodePoint &P : F.CodeMap) {
      D.word(P.Off);
      D.word(P.App);
      D.word(P.Linear);
    }
    D.word(F.AppRanges.size());
    for (const AppRange &AR : F.AppRanges) {
      D.word(AR.Lo);
      D.word(AR.Hi);
    }
  });
  return D.H;
}

struct Golden {
  const char *Workload;
  uint64_t ColdStart;
  uint64_t AdaptiveIb;
};

// Recorded before fragment emission moved to a single layout.
constexpr Golden Goldens[] = {
    {"gzip", 0xe49753f5de08d55dull, 0x8c3bd680b3f155f4ull},
    {"vpr", 0x8a5814e6c1c9fe10ull, 0x11a5021d909c4e46ull},
    {"gcc", 0xe9df65d1cc695dcdull, 0xa3095737af31fd39ull},
    {"mcf", 0xec788b1b1c21192dull, 0xfe90fc50bb898478ull},
    {"crafty", 0x9000f3d3e75e2cb3ull, 0xad6236e5f5e2cbd6ull},
    {"parser", 0xbc5d4c7af02d609bull, 0x633e29e314297e3eull},
    {"perlbmk", 0xcdc6ac00a3fd6c0full, 0x2ad171bad3bdfa62ull},
    {"gap", 0xb696962f2d3cdcb9ull, 0xd73d45b3de19dfcfull},
    {"eon", 0x823e7b0436cdafc5ull, 0x9c6517fc00ee7b95ull},
    {"vortex", 0xf81576a108484553ull, 0x7ffbf82626a49b9bull},
    {"bzip2", 0x1b753cc2f969374dull, 0x526fb213dd95d2c9ull},
    {"twolf", 0x5e3f524799928dffull, 0xf89a45e47a1a1f5bull},
    {"swim", 0xfee308cf00fecfb0ull, 0xcf3edda907190f80ull},
    {"mgrid", 0xf1c2afae97d92649ull, 0xa226d009e85965f7ull},
    {"applu", 0xbffed16745a41c74ull, 0xd0f8425e9fe20c94ull},
    {"equake", 0x108adf23bf07e48eull, 0x2c0526815d7c34fcull},
    {"wupwise", 0xd7ff7aa194c19ca9ull, 0x2e276f1e8699f597ull},
    {"mesa", 0x81f83f4294b71aadull, 0x3bc060bbc98b2b08ull},
    {"art", 0x60e098e1421e1a8full, 0x61970ccba5ee231aull},
    {"ammp", 0xc3c3f1716b8b56feull, 0x323d0e5917dde93bull},
    {"sixtrack", 0x2a1116caa8a1a596ull, 0x34de4260c9cab13bull},
    {"apsi", 0xde7816ad4e7e28dull, 0x834fc9b8de9b4e3eull},
    {"smc", 0x40942761eaa8bdc8ull, 0xc3518e26d5cc7e66ull},
    {"cachepressure", 0xf86aaf3246a3c5f6ull, 0xb55de81d196d6d09ull},
};

TEST(EmissionDigest, EveryWorkloadUnderColdStartAndAdaptiveIb) {
  std::vector<const Workload *> Ws;
  for (const Workload &W : allWorkloads())
    Ws.push_back(&W);
  for (const Workload &W : cacheWorkloads())
    Ws.push_back(&W);
  ASSERT_EQ(Ws.size(), std::size(Goldens));
  for (size_t I = 0; I != Ws.size(); ++I) {
    const Workload &W = *Ws[I];
    ASSERT_STREQ(W.Name, Goldens[I].Workload);
    EXPECT_EQ(digestRun(W, Setup::ColdStart), Goldens[I].ColdStart)
        << W.Name << " cold start";
    EXPECT_EQ(digestRun(W, Setup::AdaptiveIb), Goldens[I].AdaptiveIb)
        << W.Name << " adaptive IB";
  }
}

} // namespace
