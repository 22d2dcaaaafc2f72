//===- tests/persist_test.cpp - Persistent code caches -----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the persistent code caches (src/persist): warm-start
/// equivalence against a cold run, round-trip bit-determinism (save
/// mid-run, restore into a fresh runtime, continue — cycles and statistics
/// must match an uninterrupted run exactly) in both cache-sharing modes,
/// relocation to a different runtime-region base, save/load gating, and
/// loader hardening — truncated, corrupted, mismatched and bit-flipped
/// images must all reject cleanly into a cold start, never crash.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "core/Runtime.h"
#include "persist/CacheImage.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <map>
#include <memory>
#include <set>

using namespace rio;
using namespace rio::persist;
using namespace rio::test;

namespace {

/// A cache+traces workload: a hot loop (promoted to a trace) dispatching
/// through a skewed jump table (exercises the IBL and, when enabled, the
/// indirect-branch inline chains), plus a cold side path so the image
/// holds a mix of linked and unlinked exits. Prints a checksum, so any
/// divergence in restored execution changes the output.
Program dispatchProgram(int Iters) {
  std::string Table = "table: .word h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0 h0"
                      " h1 h2 h3 h4\n";
  return assembleOrDie(R"(
    .entry main
  )" + Table + R"(
    main:
      mov esi, 0
      mov eax, 12345
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      imul eax, eax, 1103515245
      add eax, 12345
      mov ecx, eax
      shr ecx, 16
      and ecx, 15
      shl ecx, 2
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
  )");
}

struct ColdRun {
  std::string Output;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  std::map<std::string, uint64_t> Stats;
  std::vector<uint8_t> Image;
};

/// Runs \p Prog under \p Config to completion on a fresh machine and saves
/// the warmed state.
ColdRun coldRunAndSave(const Program &Prog, const RuntimeConfig &Config) {
  ColdRun R;
  Machine M;
  EXPECT_TRUE(loadProgram(M, Prog));
  Runtime RT(M, Config);
  RunResult Res = RT.run();
  EXPECT_EQ(Res.Status, RunStatus::Exited);
  R.Output = M.output();
  R.Cycles = Res.Cycles;
  R.Instructions = Res.Instructions;
  R.Stats = RT.stats().all();
  EXPECT_TRUE(CacheCodec::save(RT, R.Image));
  return R;
}

/// Occupancy gauges republished on every register/retire, plus the persist
/// counters themselves: excluded from the summed round-trip comparison
/// (gauges are point-in-time, persist counters only exist on one side).
bool isGaugeOrPersistStat(const std::string &Name) {
  return Name.rfind("cache_bb_", 0) == 0 || Name.rfind("cache_trace_", 0) == 0 ||
         Name.rfind("cache_warm_", 0) == 0 || Name == "persist_bytes_written";
}

} // namespace

//===----------------------------------------------------------------------===//
// Warm start
//===----------------------------------------------------------------------===//

TEST(Persist, WarmStartSkipsWarmupAndMatchesOutput) {
  Program Prog = dispatchProgram(4000);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());
  ASSERT_FALSE(Cold.Image.empty());
  EXPECT_GT(Cold.Stats["basic_blocks_built"], 0u);
  EXPECT_GT(Cold.Stats["traces_built"], 0u);

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime RT(M, Config);
  ASSERT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
            LoadStatus::Ok);
  EXPECT_GT(RT.stats().get("cache_warm_hits"), 0u);

  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(M.output(), Cold.Output);
  // The whole point: no block building, no trace promotion, strictly
  // fewer cycles to the same place.
  EXPECT_EQ(RT.stats().get("basic_blocks_built"), 0u);
  EXPECT_EQ(RT.stats().get("traces_built"), 0u);
  EXPECT_LT(R.Cycles, Cold.Cycles);
}

TEST(Persist, WarmStartCarriesIbInlineState) {
  RuntimeConfig Config = RuntimeConfig::full();
  Config.IbInline = true;
  Config.IbInlineThreshold = 64;

  Program Prog = dispatchProgram(4000);
  ColdRun Cold = coldRunAndSave(Prog, Config);
  ASSERT_FALSE(Cold.Image.empty());
  ASSERT_GT(Cold.Stats["ib_inline_rewrites"], 0u);

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  Runtime RT(M, Config);
  ASSERT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
            LoadStatus::Ok);
  RunResult R = RT.run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(M.output(), Cold.Output);
  EXPECT_EQ(RT.stats().get("basic_blocks_built"), 0u);
  // The restored chains keep taking hits without being re-installed from
  // scratch (re-profiling may still extend them later in the run).
  EXPECT_GT(RT.stats().get("ib_inline_hits"), 0u);
  EXPECT_LT(R.Cycles, Cold.Cycles);
}

TEST(Persist, WarmStartAtDifferentRegionBase) {
  Program Prog = dispatchProgram(3000);
  RuntimeConfig Config = RuntimeConfig::full();

  // Save from a runtime carved out of a sub-region...
  Machine M1;
  ASSERT_TRUE(loadProgram(M1, Prog));
  RuntimeRegion R1{M1.runtimeBase(), 4u << 20};
  Runtime RT1(M1, Config, nullptr, R1);
  EXPECT_EQ(RT1.run().Status, RunStatus::Exited);
  std::string ColdOut = M1.output();
  std::vector<uint8_t> Image;
  ASSERT_TRUE(CacheCodec::save(RT1, Image));

  // ...and restore it into an equally sized region one megabyte up: every
  // fragment relocates (rel32 links are invariant under the uniform shift;
  // absolute spill-slot operands are rewritten).
  Machine M2;
  ASSERT_TRUE(loadProgram(M2, Prog));
  RuntimeRegion R2{M2.runtimeBase() + (1u << 20), 4u << 20};
  Runtime RT2(M2, Config, nullptr, R2);
  ASSERT_EQ(CacheCodec::load(RT2, Image.data(), Image.size()), LoadStatus::Ok);
  RunResult R = RT2.run();
  EXPECT_EQ(R.Status, RunStatus::Exited);
  EXPECT_EQ(M2.output(), ColdOut);
  EXPECT_EQ(RT2.stats().get("basic_blocks_built"), 0u);
  EXPECT_EQ(RT2.stats().get("traces_built"), 0u);
}

//===----------------------------------------------------------------------===//
// Round-trip determinism
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Prog to a mid-run quiescent point (not finished, not suspended
/// inside the cache, no trace recording), saves, then restores into a
/// brand-new runtime on the same machine and finishes there. The composite
/// run must be bit-identical — cycles, instructions, output, and every
/// summed flow counter — to an uninterrupted run.
void roundTrip(const Program &Prog, RuntimeConfig Config) {
  ColdRun Ref = [&] {
    ColdRun R;
    Machine M;
    EXPECT_TRUE(loadProgram(M, Prog));
    Runtime RT(M, Config);
    RunResult Res = RT.run();
    EXPECT_EQ(Res.Status, RunStatus::Exited);
    R.Output = M.output();
    R.Cycles = Res.Cycles;
    R.Instructions = Res.Instructions;
    R.Stats = RT.stats().all();
    return R;
  }();

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  auto First = std::make_unique<Runtime>(M, Config);
  std::vector<uint8_t> Image;
  std::map<std::string, uint64_t> FirstStats;
  AppPc ResumeTag = 0;
  bool Saved = false;
  // Single-step so that every fragment-exit boundary becomes a suspension;
  // once the runtime holds a trace, the first AtDispatcher suspension
  // outside trace recording is a quiescent point save accepts.
  for (int Tries = 0; Tries != 400000; ++Tries) {
    RunResult Step = First->runFor(1);
    ASSERT_TRUE(Step.QuantumExpired) << "program finished before a save";
    if (First->stats().get("traces_built") == 0)
      continue;
    if (First->activeContext().ResumePoint !=
        ThreadContext::Resume::AtDispatcher)
      continue;
    if (CacheCodec::save(*First, Image)) {
      FirstStats = First->stats().all();
      ResumeTag = First->activeContext().ResumeTag;
      Saved = true;
      break;
    }
  }
  ASSERT_TRUE(Saved);
  ASSERT_NE(ResumeTag, 0u);
  First.reset();

  Runtime Second(M, Config);
  ASSERT_EQ(CacheCodec::load(Second, Image.data(), Image.size()),
            LoadStatus::Ok);
  M.cpu().Pc = ResumeTag; // resume where the first runtime suspended
  RunResult R = Second.run();
  EXPECT_EQ(R.Status, RunStatus::Exited);

  // Save and load are host-side (like mmap'ing a cache file): the machine
  // totals must be exactly what one uninterrupted run produces.
  EXPECT_EQ(M.output(), Ref.Output);
  EXPECT_EQ(R.Cycles, Ref.Cycles);
  EXPECT_EQ(R.Instructions, Ref.Instructions);

  // Flow counters: first-half + second-half == uninterrupted. Occupancy
  // gauges are point-in-time, so only the final values must agree.
  std::map<std::string, uint64_t> SecondStats = Second.stats().all();
  for (const auto &[Name, RefVal] : Ref.Stats) {
    uint64_t A = FirstStats.count(Name) ? FirstStats[Name] : 0;
    uint64_t B = SecondStats.count(Name) ? SecondStats[Name] : 0;
    if (isGaugeOrPersistStat(Name)) {
      bool PersistOnly =
          Name.rfind("cache_warm_", 0) == 0 || Name == "persist_bytes_written";
      if (!PersistOnly) {
        EXPECT_EQ(B, RefVal) << "gauge " << Name;
      }
    } else {
      EXPECT_EQ(A + B, RefVal) << "counter " << Name;
    }
  }
}

} // namespace

TEST(Persist, RoundTripIsBitIdenticalThreadPrivate) {
  roundTrip(dispatchProgram(4000), RuntimeConfig::full());
}

TEST(Persist, RoundTripIsBitIdenticalShared) {
  RuntimeConfig Config = RuntimeConfig::full();
  Config.Sharing = CacheSharing::Shared;
  roundTrip(dispatchProgram(4000), Config);
}

TEST(Persist, RoundTripIsBitIdenticalWithIbInline) {
  RuntimeConfig Config = RuntimeConfig::full();
  Config.IbInline = true;
  Config.IbInlineThreshold = 64;
  roundTrip(dispatchProgram(4000), Config);
}

//===----------------------------------------------------------------------===//
// Gating
//===----------------------------------------------------------------------===//

TEST(Persist, SaveRefusesMidCacheSuspension) {
  Program Prog = dispatchProgram(4000);
  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime RT(M, Config);
  // A tiny quantum reliably suspends inside cache code once the hot loop
  // is warm; such a context pins cache bytes save cannot snapshot.
  bool SawRefusal = false;
  for (int I = 0; I != 50 && !SawRefusal; ++I) {
    RunResult Step = RT.runFor(997);
    ASSERT_TRUE(Step.QuantumExpired);
    std::vector<uint8_t> Image;
    if (RT.activeContext().ResumePoint == ThreadContext::Resume::InCache) {
      EXPECT_FALSE(CacheCodec::save(RT, Image));
      SawRefusal = true;
    }
  }
  EXPECT_TRUE(SawRefusal);
}

TEST(Persist, SaveRefusesEmulationMode) {
  Program Prog = dispatchProgram(100);
  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  RuntimeConfig Config = RuntimeConfig::emulate();
  Runtime RT(M, Config);
  EXPECT_EQ(RT.run().Status, RunStatus::Exited);
  std::vector<uint8_t> Image;
  EXPECT_FALSE(CacheCodec::save(RT, Image));
}

TEST(Persist, LoadRequiresColdRuntime) {
  Program Prog = dispatchProgram(2000);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime RT(M, Config);
  EXPECT_EQ(RT.run().Status, RunStatus::Exited); // now warmed the hard way
  EXPECT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
            LoadStatus::NotCold);
  EXPECT_EQ(RT.stats().get("cache_warm_rejects"), 1u);
}

TEST(Persist, LoadRejectsConfigMismatch) {
  Program Prog = dispatchProgram(2000);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  Machine M;
  ASSERT_TRUE(loadProgram(M, Prog));
  RuntimeConfig Config = RuntimeConfig::full();
  Config.TraceThreshold += 1; // the warmed state depends on this knob
  Runtime RT(M, Config);
  EXPECT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
            LoadStatus::ConfigMismatch);
  // The reject is observable and the runtime stays usable cold.
  EXPECT_EQ(RT.stats().get("cache_warm_rejects"), 1u);
  EXPECT_EQ(RT.stats().get("cache_warm_hits"), 0u);
  EXPECT_EQ(RT.run().Status, RunStatus::Exited);
  EXPECT_EQ(M.output(), Cold.Output);
}

TEST(Persist, LoadRejectsChangedApplication) {
  ColdRun Cold = coldRunAndSave(dispatchProgram(2000), RuntimeConfig::full());

  // Same config, different application code: the per-fragment app-range
  // hash is recomputed over the *current* machine's bytes.
  Program Other = dispatchProgram(2001);
  Machine M;
  ASSERT_TRUE(loadProgram(M, Other));
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime RT(M, Config);
  EXPECT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
            LoadStatus::AppImageMismatch);
  EXPECT_EQ(RT.run().Status, RunStatus::Exited);
}

//===----------------------------------------------------------------------===//
// Loader hardening
//===----------------------------------------------------------------------===//

namespace {

/// Fresh machine + cold runtime for one hostile-load attempt.
struct LoadTarget {
  Machine M;
  RuntimeConfig Config;
  std::unique_ptr<Runtime> RT;
  explicit LoadTarget(const Program &Prog,
                      RuntimeConfig C = RuntimeConfig::full())
      : Config(C) {
    EXPECT_TRUE(loadProgram(M, Prog));
    RT = std::make_unique<Runtime>(M, Config);
  }
  LoadStatus load(const std::vector<uint8_t> &Bytes) {
    return CacheCodec::load(*RT, Bytes.data(), Bytes.size());
  }
};

//===--------------------------------------------------------------------===//
// Surgical image corruption: a mini-walker over the serialized layout so
// tests can mutate one specific record, then re-seal the checksum so the
// structural validators (not the integrity layer) must catch it.
//===--------------------------------------------------------------------===//

uint32_t rd32(const std::vector<uint8_t> &B, size_t Off) {
  return uint32_t(B[Off]) | uint32_t(B[Off + 1]) << 8 |
         uint32_t(B[Off + 2]) << 16 | uint32_t(B[Off + 3]) << 24;
}
void wr32(std::vector<uint8_t> &B, size_t Off, uint32_t V) {
  B[Off] = uint8_t(V);
  B[Off + 1] = uint8_t(V >> 8);
  B[Off + 2] = uint8_t(V >> 16);
  B[Off + 3] = uint8_t(V >> 24);
}

/// Recomputes the header checksum over the (possibly tampered) payload.
std::vector<uint8_t> reseal(std::vector<uint8_t> B) {
  uint64_t H = 14695981039346656037ull;
  for (size_t I = 16; I != B.size(); ++I) {
    H ^= B[I];
    H *= 1099511628211ull;
  }
  for (int I = 0; I != 8; ++I)
    B[8 + I] = uint8_t(H >> (8 * I));
  return B;
}

// Layout constants (file offsets): 16-byte header, 44-byte payload
// preamble, fragment count at 60. Per fragment: 30 fixed bytes (CodeSize
// at +10, StubsSize at +14), then exit records of 34 bytes each (StubOff
// at +14, StubJmpOff at +18, StubJmpLen at +22), app ranges (8), code
// points (9), OSR descriptors (20), and the raw slot bytes. Table entries
// are 13 bytes, IB sites 116, shadows 8.
constexpr size_t FragCountOff = 60;
constexpr size_t FragFixedBytes = 30;
constexpr size_t ExitBytes = 34;
constexpr size_t EntryBytes = 13;
constexpr size_t SiteBytes = 116;

/// Walks every fragment record; returns the offset of the table-entry
/// count that follows them. If \p FirstDirectExit is non-null, also
/// reports the offset of the first direct-exit record (0 if none); if
/// \p FragOffs is non-null, it receives each fragment record's offset.
size_t skipFragments(const std::vector<uint8_t> &B,
                     size_t *FirstDirectExit = nullptr,
                     std::vector<size_t> *FragOffs = nullptr) {
  if (FirstDirectExit)
    *FirstDirectExit = 0;
  size_t Pos = FragCountOff;
  uint32_t NumFrags = rd32(B, Pos);
  Pos += 4;
  for (uint32_t F = 0; F != NumFrags; ++F) {
    if (FragOffs)
      FragOffs->push_back(Pos);
    uint32_t CodeSize = rd32(B, Pos + 10);
    uint32_t StubsSize = rd32(B, Pos + 14);
    Pos += FragFixedBytes;
    uint32_t NumExits = rd32(B, Pos);
    Pos += 4;
    for (uint32_t E = 0; E != NumExits; ++E, Pos += ExitBytes)
      if (B[Pos] == 0 && FirstDirectExit && !*FirstDirectExit)
        *FirstDirectExit = Pos;
    Pos += 4 + size_t(rd32(B, Pos)) * 8;  // app ranges
    Pos += 4 + size_t(rd32(B, Pos)) * 9;  // code points
    Pos += 4 + size_t(rd32(B, Pos)) * 20; // OSR descriptors
    Pos += size_t(CodeSize) + StubsSize;  // slot bytes
  }
  return Pos;
}

/// Lays image \p B out as format version 3 did: a trace-block-tag list
/// after each fragment's OSR descriptors and two speculation tables
/// (guard-failure counters, blacklisted tags) after the predictor state,
/// all empty here, under version 3 and a valid checksum.
std::vector<uint8_t> asVersion3(const std::vector<uint8_t> &B) {
  std::vector<uint8_t> Out;
  size_t Pos = 0;
  auto copyTo = [&](size_t End) {
    Out.insert(Out.end(), B.begin() + Pos, B.begin() + End);
    Pos = End;
  };
  auto emptyList = [&] { Out.insert(Out.end(), 4, 0); };
  std::vector<size_t> FragOffs;
  skipFragments(B, nullptr, &FragOffs);
  for (size_t Off : FragOffs) {
    uint32_t CodeSize = rd32(B, Off + 10);
    uint32_t StubsSize = rd32(B, Off + 14);
    size_t End = Off + FragFixedBytes;
    End += 4 + size_t(rd32(B, End)) * ExitBytes;
    End += 4 + size_t(rd32(B, End)) * 8;  // app ranges
    End += 4 + size_t(rd32(B, End)) * 9;  // code points
    End += 4 + size_t(rd32(B, End)) * 20; // OSR descriptors
    copyTo(End);
    emptyList();
    copyTo(End + CodeSize + StubsSize);
  }
  copyTo(B.size());
  emptyList();
  emptyList();
  wr32(Out, 4, 3);
  return reseal(Out);
}

} // namespace

TEST(Persist, EveryTruncationRejectsCleanly) {
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());
  ASSERT_FALSE(Cold.Image.empty());

  // Checking every prefix length would re-walk the whole image O(n) times;
  // cover all short prefixes plus a spread of interior cuts.
  std::set<size_t> Cuts;
  for (size_t I = 0; I != std::min<size_t>(64, Cold.Image.size()); ++I)
    Cuts.insert(I);
  for (size_t I = 0; I < Cold.Image.size(); I += 37)
    Cuts.insert(I);
  Cuts.insert(Cold.Image.size() - 1);

  Program Target = dispatchProgram(1500);
  for (size_t Cut : Cuts) {
    LoadTarget T(Target);
    std::vector<uint8_t> Trunc(Cold.Image.begin(), Cold.Image.begin() + Cut);
    EXPECT_NE(T.load(Trunc), LoadStatus::Ok) << "cut at " << Cut;
    EXPECT_EQ(T.RT->numFragments(), 0u) << "cut at " << Cut;
  }
  // And the degenerate no-file case (riodyn -cache-load with a bad path).
  LoadTarget T(Target);
  EXPECT_EQ(CacheCodec::load(*T.RT, nullptr, 0), LoadStatus::Truncated);
}

TEST(Persist, HeaderCorruptionIsRejected) {
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  auto Mutated = [&](size_t Off, uint8_t Xor) {
    std::vector<uint8_t> B = Cold.Image;
    B[Off] ^= Xor;
    return B;
  };
  EXPECT_EQ(LoadTarget(Prog).load(Mutated(0, 0xFF)), LoadStatus::BadMagic);
  EXPECT_EQ(LoadTarget(Prog).load(Mutated(4, 0x01)), LoadStatus::BadVersion);
  EXPECT_EQ(LoadTarget(Prog).load(Mutated(8, 0x01)), LoadStatus::BadChecksum);
  // Payload corruption trips the checksum before any record is parsed.
  EXPECT_EQ(LoadTarget(Prog).load(Mutated(Cold.Image.size() / 2, 0x10)),
            LoadStatus::BadChecksum);
}

TEST(Persist, VersionThreeImageFallsBackToColdStart) {
  // A well-formed image of the previous format version is refused as a
  // version mismatch before any record is read; the runtime stays cold
  // and runs the program from scratch, cycle for cycle.
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());
  std::vector<uint8_t> V3 = asVersion3(Cold.Image);
  ASSERT_EQ(V3.size(),
            Cold.Image.size() + 4 * (rd32(Cold.Image, FragCountOff) + 2));

  LoadTarget T(Prog);
  EXPECT_EQ(T.load(V3), LoadStatus::BadVersion);
  EXPECT_EQ(T.RT->numFragments(), 0u);
  RunResult R = T.RT->run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(T.M.output(), Cold.Output);
  EXPECT_EQ(R.Cycles, Cold.Cycles);

  // The file path riodyn -cache-load takes reports the refusal the same
  // way: no fragments, a cold run that matches.
  std::string Path = testing::TempDir() + "persist_v3.riocache";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(V3.data(), 1, V3.size(), F), V3.size());
  std::fclose(F);
  LoadTarget FromFile(Prog);
  EXPECT_FALSE(dr_cache_load(FromFile.RT.get(), Path.c_str()));
  EXPECT_EQ(FromFile.RT->numFragments(), 0u);
  EXPECT_EQ(FromFile.RT->run().Status, RunStatus::Exited);
  EXPECT_EQ(FromFile.M.output(), Cold.Output);
  std::remove(Path.c_str());
}

TEST(Persist, BitFlipFuzzNeverCrashesAndNeverCorrupts) {
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());
  ASSERT_FALSE(Cold.Image.empty());

  Rng R(0x9e3779b97f4a7c15ull);
  for (int Iter = 0; Iter != 200; ++Iter) {
    std::vector<uint8_t> B = Cold.Image;
    unsigned Flips = 1 + unsigned(R.nextBelow(8));
    for (unsigned F = 0; F != Flips; ++F)
      B[size_t(R.nextBelow(B.size()))] ^= uint8_t(1u << R.nextBelow(8));

    LoadTarget T(Prog);
    LoadStatus St = T.load(B);
    if (St == LoadStatus::Ok) {
      // A flip that survives every validation layer must still execute
      // exactly like the saved run (in practice the checksum stops all of
      // these; this branch is the safety net, not the expectation).
      EXPECT_EQ(T.RT->run().Status, RunStatus::Exited);
      EXPECT_EQ(T.M.output(), Cold.Output);
    } else {
      // Rejected: the runtime must be untouched and fully usable cold.
      EXPECT_EQ(T.RT->numFragments(), 0u);
      EXPECT_EQ(T.RT->stats().get("cache_warm_rejects"), 1u);
    }
  }
}

TEST(Persist, TamperedPayloadPastChecksumIsRejected) {
  // Re-seal a tampered payload with a correct checksum so the structural
  // validators (not the checksum) have to catch it. Flipping a byte of a
  // fragment's kind/geometry or link index must never reach apply().
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  Rng R(0xdeadbeefcafef00dull);
  int Rejected = 0, Accepted = 0;
  for (int Iter = 0; Iter != 200; ++Iter) {
    std::vector<uint8_t> B = Cold.Image;
    size_t Off = 16 + size_t(R.nextBelow(B.size() - 16));
    B[Off] ^= uint8_t(1u << R.nextBelow(8));
    B = reseal(std::move(B));

    LoadTarget T(Prog);
    LoadStatus St = T.load(B);
    ASSERT_NE(St, LoadStatus::BadChecksum); // the reseal worked
    if (St == LoadStatus::Ok) {
      // The checksum is the integrity layer and we defeated it on purpose;
      // structural validation only guarantees the *host* stays safe. The
      // guest may compute garbage or fault cleanly — it just must not hang
      // the loader or corrupt the runtime (ASan/UBSan police the rest).
      ++Accepted;
      (void)T.RT->runFor(2000000);
    } else {
      ++Rejected;
      EXPECT_EQ(T.RT->numFragments(), 0u);
    }
  }
  // The structural validators must be doing real work.
  EXPECT_GT(Rejected, 0);
  (void)Accepted;
}

TEST(Persist, StubOffsetWrapIsRejected) {
  // Regression: StubOff just below 2^32 passes `StubOff >= CodeSize`, and a
  // 32-bit `StubJmpOff < StubOff + 4` wrapped to `< 0`, accepting
  // StubJmpOff 0..3 — whose exit-id patch at StubJmpOff - 4 then underflowed
  // to a ~4GB index into the slot-byte vector. Must reject as malformed.
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  size_t Exit = 0;
  skipFragments(Cold.Image, &Exit);
  ASSERT_NE(Exit, 0u) << "workload must produce a direct exit";
  std::vector<uint8_t> B = Cold.Image;
  wr32(B, Exit + 14, 0xFFFFFFFCu); // StubOff
  wr32(B, Exit + 18, 0);           // StubJmpOff
  wr32(B, Exit + 22, 5);           // StubJmpLen
  B = reseal(std::move(B));

  LoadTarget T(Prog);
  EXPECT_EQ(T.load(B), LoadStatus::Malformed);
  EXPECT_EQ(T.RT->numFragments(), 0u);
}

TEST(Persist, DuplicateTableEntriesAreRejected) {
  // apply() would resolve duplicate tags last-wins through Table.slot();
  // parse() must instead reject the non-canonical image outright.
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  size_t EntriesOff = skipFragments(Cold.Image);
  ASSERT_GE(rd32(Cold.Image, EntriesOff), 2u);
  std::vector<uint8_t> B = Cold.Image;
  // Copy record 0 over record 1: every per-record invariant still holds;
  // only the strictly-increasing tag order is violated.
  std::copy(B.begin() + EntriesOff + 4, B.begin() + EntriesOff + 4 + EntryBytes,
            B.begin() + EntriesOff + 4 + EntryBytes);
  B = reseal(std::move(B));

  LoadTarget T(Prog);
  EXPECT_EQ(T.load(B), LoadStatus::Malformed);
  EXPECT_EQ(T.RT->numFragments(), 0u);
}

TEST(Persist, DuplicateIbSitesAreRejected) {
  // Same canonical-order rule for the IB site histograms, where duplicates
  // would restore first-wins (IbProfiles.emplace) — silently ambiguous.
  RuntimeConfig Config = RuntimeConfig::full();
  Config.IbInline = true;
  Config.IbInlineThreshold = 64;
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, Config);

  size_t EntriesOff = skipFragments(Cold.Image);
  size_t SitesOff =
      EntriesOff + 4 + size_t(rd32(Cold.Image, EntriesOff)) * EntryBytes;
  uint32_t NumSites = rd32(Cold.Image, SitesOff);
  ASSERT_GE(NumSites, 1u) << "IB profiling must have recorded the dispatch";
  std::vector<uint8_t> B = Cold.Image;
  // Insert a byte-for-byte copy of the first site record and bump the count.
  std::vector<uint8_t> Rec(B.begin() + SitesOff + 4,
                           B.begin() + SitesOff + 4 + SiteBytes);
  B.insert(B.begin() + SitesOff + 4, Rec.begin(), Rec.end());
  wr32(B, SitesOff, NumSites + 1);
  B = reseal(std::move(B));

  LoadTarget T(Prog, Config);
  EXPECT_EQ(T.load(B), LoadStatus::Malformed);
  EXPECT_EQ(T.RT->numFragments(), 0u);
}

TEST(Persist, MarkedEntryOnUnmarkedBlockIsRejected) {
  // Regression: with traces on, a marked table entry whose basic block has
  // IsTraceHead clear breaks the runtime's "a marked live block is already
  // promoted" invariant, and the next re-mark of the tag aborted the host
  // in Runtime::markTraceHead. parse() must reject such an image.
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  std::vector<size_t> FragOffs;
  size_t EntriesOff = skipFragments(Cold.Image, nullptr, &FragOffs);
  size_t HeadOff = 0;
  uint32_t NumEntries = rd32(Cold.Image, EntriesOff);
  for (uint32_t I = 0; I != NumEntries && !HeadOff; ++I) {
    size_t Rec = EntriesOff + 4 + size_t(I) * EntryBytes;
    uint32_t FragIdx = rd32(Cold.Image, Rec + 4);
    if (Cold.Image[Rec + 12] && FragIdx < FragOffs.size() &&
        Cold.Image[FragOffs[FragIdx] + 4] == 0 &&
        Cold.Image[FragOffs[FragIdx] + 5] != 0)
      HeadOff = FragOffs[FragIdx] + 5; // that block's IsTraceHead byte
  }
  ASSERT_NE(HeadOff, 0u) << "workload must leave a marked trace-head block";
  std::vector<uint8_t> B = Cold.Image;
  B[HeadOff] = 0;
  B = reseal(std::move(B));

  LoadTarget T(Prog);
  ASSERT_EQ(T.load(B), LoadStatus::Malformed);
  EXPECT_EQ(T.RT->numFragments(), 0u);
}

TEST(Persist, OversizedClaimedCountsRejectPromptly) {
  // A sub-100-byte file claiming the maximum fragment count must reject as
  // truncated without the claimed count ever sizing an allocation (the
  // reserve is clamped to what the remaining payload could possibly hold).
  Program Prog = dispatchProgram(1500);
  ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

  std::vector<uint8_t> B(Cold.Image.begin(),
                         Cold.Image.begin() + FragCountOff + 4);
  wr32(B, FragCountOff, 1u << 20); // MaxFragments: passes the count ceiling
  B = reseal(std::move(B));

  LoadTarget T(Prog);
  EXPECT_EQ(T.load(B), LoadStatus::Truncated);
  EXPECT_EQ(T.RT->numFragments(), 0u);
}

//===----------------------------------------------------------------------===//
// File-level API
//===----------------------------------------------------------------------===//

TEST(Persist, DrCacheFileApiRoundTrips) {
  Program Prog = dispatchProgram(2000);
  std::string Path = testing::TempDir() + "persist_api_test.riocache";

  Machine M1;
  ASSERT_TRUE(loadProgram(M1, Prog));
  RuntimeConfig Config = RuntimeConfig::full();
  Runtime RT1(M1, Config);
  EXPECT_EQ(RT1.run().Status, RunStatus::Exited);
  ASSERT_TRUE(dr_cache_save(&RT1, Path.c_str()));

  Machine M2;
  ASSERT_TRUE(loadProgram(M2, Prog));
  Runtime RT2(M2, Config);
  EXPECT_TRUE(dr_cache_image_valid(&RT2, Path.c_str()));
  ASSERT_TRUE(dr_cache_load(&RT2, Path.c_str()));
  EXPECT_EQ(RT2.run().Status, RunStatus::Exited);
  EXPECT_EQ(M2.output(), M1.output());

  Machine M3;
  ASSERT_TRUE(loadProgram(M3, Prog));
  Runtime RT3(M3, Config);
  EXPECT_FALSE(dr_cache_load(&RT3, (Path + ".missing").c_str()));
  EXPECT_FALSE(dr_cache_image_valid(&RT3, (Path + ".missing").c_str()));
  EXPECT_EQ(RT3.stats().get("cache_warm_rejects"), 1u);
  std::remove(Path.c_str());
}

TEST(Persist, WorkloadWarmStartsAreCheaperAndIdentical) {
  for (const char *Name : {"crafty", "vpr", "gap"}) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    Program Prog = buildWorkload(*W, 0);
    ColdRun Cold = coldRunAndSave(Prog, RuntimeConfig::full());

    Machine M;
    ASSERT_TRUE(loadProgram(M, Prog));
    RuntimeConfig Config = RuntimeConfig::full();
    Runtime RT(M, Config);
    ASSERT_EQ(CacheCodec::load(RT, Cold.Image.data(), Cold.Image.size()),
              LoadStatus::Ok)
        << Name;
    RunResult R = RT.run();
    EXPECT_EQ(R.Status, RunStatus::Exited) << Name;
    EXPECT_EQ(M.output(), Cold.Output) << Name;
    EXPECT_EQ(RT.stats().get("basic_blocks_built"), 0u) << Name;
    EXPECT_EQ(RT.stats().get("traces_built"), 0u) << Name;
    EXPECT_LT(R.Cycles, Cold.Cycles) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Format pin
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a 64 over a stream of saved images (length, then every byte).
struct ImageDigest {
  uint64_t H = 14695981039346656037ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  }
  void image(const std::vector<uint8_t> &Image) {
    for (unsigned I = 0; I != 8; ++I)
      byte(uint8_t(uint64_t(Image.size()) >> (8 * I)));
    for (uint8_t B : Image)
      byte(B);
  }
};

} // namespace

TEST(PersistGolden, ImageDigestIsPinned) {
  // The exact bytes CacheCodec::save writes, folded over a fixed set of
  // runs: the dispatch program in three configurations, the three
  // bench_persist workloads, and an image re-saved right after loading at
  // a shifted region base (pins relocation output). Any change to field
  // order, width or content moves the digest. Never edit a version's pin:
  // a layout change must bump CacheImageVersion and pin the new version.
  ImageDigest D;
  RuntimeConfig IbOn = RuntimeConfig::full();
  IbOn.IbInline = true;
  IbOn.IbInlineThreshold = 64;
  RuntimeConfig Shared = RuntimeConfig::full();
  Shared.Sharing = CacheSharing::Shared;
  for (const RuntimeConfig &Config : {RuntimeConfig::full(), IbOn, Shared})
    D.image(coldRunAndSave(dispatchProgram(4000), Config).Image);
  for (const char *Name : {"crafty", "vpr", "gap"}) {
    const Workload *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    D.image(coldRunAndSave(buildWorkload(*W, 0), RuntimeConfig::full()).Image);
  }

  Program Prog = dispatchProgram(3000);
  RuntimeConfig Config = RuntimeConfig::full();
  Machine M1;
  ASSERT_TRUE(loadProgram(M1, Prog));
  Runtime RT1(M1, Config, nullptr, RuntimeRegion{M1.runtimeBase(), 4u << 20});
  ASSERT_EQ(RT1.run().Status, RunStatus::Exited);
  std::vector<uint8_t> Saved;
  ASSERT_TRUE(CacheCodec::save(RT1, Saved));
  Machine M2;
  ASSERT_TRUE(loadProgram(M2, Prog));
  Runtime RT2(M2, Config, nullptr,
              RuntimeRegion{M2.runtimeBase() + (1u << 20), 4u << 20});
  ASSERT_EQ(CacheCodec::load(RT2, Saved.data(), Saved.size()), LoadStatus::Ok);
  std::vector<uint8_t> Resaved;
  ASSERT_TRUE(CacheCodec::save(RT2, Resaved));
  D.image(Resaved);

  // Version 3, which also carried per-trace block lists and speculation
  // tables, pinned 0x3dd47e53234e53ab.
  static_assert(CacheImageVersion == 4, "pin the new format version");
  EXPECT_EQ(D.H, 0x58445e201ee58e97ull);
}
