//===- persist/CacheImage.cpp - Persistent code-cache images ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Image layout (all integers little-endian):
//
//   header   magic "RIOC" | u32 version | u64 fnv1a-64 payload checksum
//   payload  u64 config hash (RuntimeConfig + CostModel + region layout)
//            u64 app-code hash (bytes of every fragment's AppRanges)
//            u64 write-monitor generation (machine code-write log length)
//            u32 saved runtime-region base
//            u32 x4 bb/trace cache bounds, base-relative
//            u32 fragment count, then per fragment:
//              identity/geometry, exit records (base-relative offsets),
//              app ranges, code map, raw slot bytes (body + stubs)
//            fragment-table entries (tag, fragment index, head counter,
//              marked bit), sorted by tag
//            indirect-branch site histograms, sorted by site pc
//            shadow-block bindings (tag -> fragment index), sorted by tag:
//              the unregistered per-tag stand-ins trace recording runs when
//              its path crosses an existing trace
//            simulated front-end state (two-bit conditional counters,
//              last-target BTB, return-address stack): restored so the warm
//              run reproduces the saved run's steady-state cycle model — a
//              reset counter can settle into a different, costlier limit
//              cycle on a periodic branch pattern
//
// The loader is strictly parse-then-apply: parse() bounds-checks every
// record, enforces the canonical sorted key order of the three tables
// above, resolves link indices, verifies all four validation hashes,
// relocates instruction bytes for a base shift, and renumbers exit ids —
// all into host memory. Only a fully valid image reaches apply(), which
// performs the (infallible) machine and runtime mutation.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheImage.h"

#include "core/Runtime.h"
#include "ir/Instr.h"
#include "isa/Decode.h"
#include "support/Arena.h"

#include <algorithm>
#include <cstring>

using namespace rio;
using namespace rio::persist;

const char *rio::persist::loadStatusName(LoadStatus Status) {
  switch (Status) {
  case LoadStatus::Ok:
    return "ok";
  case LoadStatus::Truncated:
    return "truncated";
  case LoadStatus::BadMagic:
    return "bad_magic";
  case LoadStatus::BadVersion:
    return "bad_version";
  case LoadStatus::BadChecksum:
    return "bad_checksum";
  case LoadStatus::ConfigMismatch:
    return "config_mismatch";
  case LoadStatus::GeometryMismatch:
    return "geometry_mismatch";
  case LoadStatus::AppImageMismatch:
    return "app_image_mismatch";
  case LoadStatus::SmcGeneration:
    return "smc_generation";
  case LoadStatus::Malformed:
    return "malformed";
  case LoadStatus::NotCold:
    return "not_cold";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t HeaderBytes = 4 + 4 + 8;

// Record-count ceilings: an image claiming more than these is rejected as
// malformed before any allocation is sized from attacker-controlled bytes.
constexpr uint32_t MaxFragments = 1u << 20;
constexpr uint32_t MaxExitsPerFragment = 1u << 14;
constexpr uint32_t MaxRecordsPerFragment = 1u << 20;
constexpr uint32_t MaxTableEntries = 1u << 22;
constexpr uint32_t MaxIbSites = 1u << 20;

uint64_t fnv1a(uint64_t H, const uint8_t *Bytes, size_t Len) {
  for (size_t I = 0; I != Len; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ull;
  }
  return H;
}
uint64_t fnv1aInit() { return 14695981039346656037ull; }
uint64_t fnvU32(uint64_t H, uint32_t V) {
  uint8_t B[4] = {uint8_t(V), uint8_t(V >> 8), uint8_t(V >> 16),
                  uint8_t(V >> 24)};
  return fnv1a(H, B, 4);
}
uint64_t fnvU64(uint64_t H, uint64_t V) {
  return fnvU32(fnvU32(H, uint32_t(V)), uint32_t(V >> 32));
}

class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    Buf.push_back(uint8_t(V));
    Buf.push_back(uint8_t(V >> 8));
    Buf.push_back(uint8_t(V >> 16));
    Buf.push_back(uint8_t(V >> 24));
  }
  void u64(uint64_t V) {
    u32(uint32_t(V));
    u32(uint32_t(V >> 32));
  }
  void bytes(const uint8_t *Src, size_t Len) {
    Buf.insert(Buf.end(), Src, Src + Len);
  }
  std::vector<uint8_t> take() { return std::move(Buf); }
  const std::vector<uint8_t> &data() const { return Buf; }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader. Every accessor returns zero past
/// the end and latches !ok(); callers check once per record, so a
/// truncated image can never read out of bounds or spin on garbage counts.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t u8() {
    if (!ensure(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!ensure(4))
      return 0;
    uint32_t V = uint32_t(Data[Pos]) | uint32_t(Data[Pos + 1]) << 8 |
                 uint32_t(Data[Pos + 2]) << 16 | uint32_t(Data[Pos + 3]) << 24;
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    uint64_t Lo = u32();
    return Lo | uint64_t(u32()) << 32;
  }
  bool bytes(uint8_t *Dst, size_t Len) {
    if (!ensure(Len))
      return false;
    std::memcpy(Dst, Data + Pos, Len);
    Pos += Len;
    return true;
  }
  bool ok() const { return Ok; }
  bool atEnd() const { return Ok && Pos == Size; }
  size_t remaining() const { return Ok ? Size - Pos : 0; }

private:
  bool ensure(size_t N) {
    if (!Ok || Size - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Ok = true;
};

/// Reserve ceiling for a vector sized from an image-claimed \p Count: the
/// remaining payload can hold at most remaining()/MinRecordBytes records,
/// so a short file never commands a large up-front allocation. The vector
/// still grows normally if the clamp underestimates.
size_t clampedReserve(const ByteReader &R, uint32_t Count,
                      size_t MinRecordBytes) {
  return std::min<size_t>(Count, R.remaining() / MinRecordBytes);
}

void write32At(std::vector<uint8_t> &Buf, size_t Off, uint32_t V) {
  Buf[Off] = uint8_t(V);
  Buf[Off + 1] = uint8_t(V >> 8);
  Buf[Off + 2] = uint8_t(V >> 16);
  Buf[Off + 3] = uint8_t(V >> 24);
}

// Exit flag bits.
constexpr uint8_t FlagAlwaysThroughStub = 1u << 0;
constexpr uint8_t FlagLinked = 1u << 1;
constexpr uint8_t FlagIsIbArm = 1u << 2;
constexpr uint8_t FlagIbMiss = 1u << 3;
constexpr uint8_t FlagIsGuard = 1u << 4;

/// True when \p Op is an absolute-memory reference into the saved runtime
/// region [Lo, Hi) — the only operand shape a base shift invalidates.
bool needsRelocation(const Operand &Op, uint32_t Lo, uint32_t Hi) {
  if (!Op.isMem() || Op.getBase() != REG_NULL || Op.getIndex() != REG_NULL)
    return false;
  uint32_t Addr = uint32_t(Op.getDisp());
  return Addr >= Lo && Addr < Hi;
}

/// Relocates one instruction stream in place: decodes [Start, End) of
/// \p Buf as if placed at NewAddr+Start, shifting every absolute runtime-
/// region memory operand by \p Delta. rel32 branch bodies are untouched
/// (both endpoints shift together). Returns false on undecodable bytes or
/// an instruction that changes length when re-encoded (disp32 is always
/// four bytes, so a length change means the image is not trustworthy).
bool relocateRange(std::vector<uint8_t> &Buf, uint32_t Start, uint32_t End,
                   uint32_t NewAddr, uint32_t Delta, uint32_t SavedLo,
                   uint32_t SavedHi, Arena &A) {
  uint32_t Off = Start;
  while (Off < End) {
    DecodedInstr DI;
    if (!decodeInstr(Buf.data() + Off, End - Off, NewAddr + Off, DI))
      return false;
    bool Patch = false;
    for (unsigned I = 0; I != DI.NumSrcs && !Patch; ++I)
      Patch = needsRelocation(DI.Srcs[I], SavedLo, SavedHi);
    for (unsigned I = 0; I != DI.NumDsts && !Patch; ++I)
      Patch = needsRelocation(DI.Dsts[I], SavedLo, SavedHi);
    if (Patch) {
      Instr *I = Instr::createDecoded(A, DI, Buf.data() + Off, 0);
      for (unsigned S = 0; S != DI.NumSrcs; ++S)
        if (needsRelocation(DI.Srcs[S], SavedLo, SavedHi))
          I->setSrc(S, Operand::memAbs(uint32_t(DI.Srcs[S].getDisp()) + Delta,
                                       DI.Srcs[S].sizeBytes()));
      for (unsigned D = 0; D != DI.NumDsts; ++D)
        if (needsRelocation(DI.Dsts[D], SavedLo, SavedHi))
          I->setDst(D, Operand::memAbs(uint32_t(DI.Dsts[D].getDisp()) + Delta,
                                       DI.Dsts[D].sizeBytes()));
      uint8_t Tmp[MaxInstrLength];
      int Len = I->encode(NewAddr + Off, Tmp, /*AllowShortBranches=*/false);
      if (Len != int(DI.Length))
        return false;
      std::memcpy(Buf.data() + Off, Tmp, size_t(Len));
    }
    Off += DI.Length;
  }
  return Off == End;
}

} // namespace

//===----------------------------------------------------------------------===//
// Host-side image representation
//===----------------------------------------------------------------------===//

struct CacheCodec::Image {
  struct Exit {
    uint8_t ExitKind = 0; // 0 direct, 1 indirect
    uint8_t Flags = 0;
    uint32_t TargetTag = 0;
    uint32_t CtiOff = 0, CtiLen = 0;
    uint32_t StubOff = 0, StubJmpOff = 0, StubJmpLen = 0;
    uint32_t SourceAppPc = 0;
    uint32_t LinkedToIdx = ~0u;
    uint32_t NewExitId = 0; // assigned at parse; direct exits only
  };
  struct Frag {
    uint32_t Tag = 0;
    uint8_t Kind = 0; // 0 basic block, 1 trace
    uint8_t IsTraceHead = 0;
    uint32_t NewAddr = 0; // absolute in the loading runtime
    uint32_t CodeSize = 0, StubsSize = 0, NumInstrs = 0;
    uint64_t BirthCycles = 0;
    std::vector<Exit> Exits;
    std::vector<AppRange> Ranges;
    std::vector<CodePoint> Points;
    std::vector<OsrPoint> Osr;        // trace OSR descriptors
    std::vector<uint32_t> NetBlocks;  // trace constituent block tags
    std::vector<uint8_t> Bytes; // relocated, exit-id-renumbered slot bytes
  };
  struct TableEntry {
    uint32_t Tag = 0;
    uint32_t FragIdx = ~0u;
    uint32_t HeadCounter = 0;
    uint8_t Marked = 0;
  };
  struct IbSite {
    uint32_t SiteAppPc = 0;
    uint64_t Total = 0, Other = 0;
    uint32_t Targets[8] = {};
    uint64_t Counts[8] = {};
  };
  struct Shadow {
    uint32_t Tag = 0;
    uint32_t FragIdx = ~0u;
  };

  std::vector<Frag> Frags;
  std::vector<TableEntry> Entries;
  std::vector<IbSite> IbSites;
  std::vector<Shadow> Shadows;
  std::vector<uint8_t> CondTable;
  std::vector<uint32_t> Btb;
  std::vector<uint32_t> Ras;
  uint32_t RasTop = 0;
  uint32_t NumExitRecords = 0;
  std::vector<std::pair<uint32_t, uint32_t>> GuardFails; // tag -> failures
  std::vector<uint32_t> Blacklist;                       // tags, sorted
};

//===----------------------------------------------------------------------===//
// Hashes and gates
//===----------------------------------------------------------------------===//

uint64_t CacheCodec::configHash(Runtime &RT) {
  const RuntimeConfig &C = RT.Config;
  const CostModel &CM = RT.M.cost();
  uint32_t Base = RT.Slots.DispatcherEntry;
  uint64_t H = fnv1aInit();
  H = fnvU32(H, CacheImageVersion);
  // Runtime feature knobs: any of these changes what code gets emitted or
  // how the warmed state would have evolved.
  H = fnvU32(H, uint32_t(C.Mode));
  H = fnvU32(H, C.LinkDirectBranches);
  H = fnvU32(H, C.LinkIndirectBranches);
  H = fnvU32(H, C.EnableTraces);
  H = fnvU32(H, C.TraceThreshold);
  H = fnvU32(H, C.MaxBlockInstrs);
  H = fnvU32(H, uint32_t(C.BbLift));
  H = fnvU32(H, C.IbInline);
  H = fnvU32(H, C.IbInlineThreshold);
  H = fnvU32(H, uint32_t(C.Eviction));
  H = fnvU32(H, C.BbCacheSize);
  H = fnvU32(H, C.TraceCacheSize);
  H = fnvU32(H, C.MonitorCodeWrites);
  H = fnvU32(H, uint32_t(C.Sharing));
  H = fnvU32(H, C.MaxThreads);
  H = fnvU64(H, C.ThreadQuantum);
  H = fnvU32(H, C.TraceOptBlacklistAfter);
  // Cost model: a different model re-weights everything the image's warmed
  // state was shaped by (trace promotion, eviction order).
  H = fnvU32(H, uint32_t(CM.Family));
  H = fnvU32(H, CM.MispredictPenalty);
  H = fnvU32(H, CM.TakenBranchCost);
  H = fnvU32(H, CM.LoadCostInt);
  H = fnvU32(H, CM.LoadCostFp);
  H = fnvU32(H, CM.StoreCost);
  H = fnvU32(H, CM.IncDecExtra);
  H = fnvU32(H, CM.EmulateOverhead);
  H = fnvU32(H, CM.ContextSwitchCost);
  H = fnvU32(H, CM.DispatchCost);
  H = fnvU32(H, CM.IblLookupCost);
  H = fnvU32(H, CM.HeadCounterCost);
  H = fnvU32(H, CM.BlockBuildPerInstr);
  H = fnvU32(H, CM.BlockBuildFixed);
  H = fnvU32(H, CM.TraceBuildPerInstr);
  H = fnvU32(H, CM.CleanCallCost);
  H = fnvU32(H, CM.FragmentReplaceCost);
  H = fnvU32(H, CM.FragmentEvictCost);
  H = fnvU32(H, CM.RegionFlushCost);
  H = fnvU32(H, CM.ThreadContextSwapCost);
  H = fnvU32(H, CM.ClientDecodeLevel02);
  H = fnvU32(H, CM.ClientDecodeLevel3);
  H = fnvU32(H, CM.ClientEncodeLevel4);
  H = fnvU32(H, CM.DeoptCost);
  // Address-space layout. The machine's app-region size fixes where the
  // runtime region starts; the base-relative cache split must also match
  // (absolute bases may differ — that is what relocation is for).
  H = fnvU32(H, RT.M.config().AppRegionSize);
  H = fnvU32(H, RT.M.config().RuntimeRegionSize);
  H = fnvU32(H, RT.CM.cacheStart(Fragment::Kind::BasicBlock) - Base);
  H = fnvU32(H, RT.CM.cacheEnd(Fragment::Kind::BasicBlock) - Base);
  H = fnvU32(H, RT.CM.cacheStart(Fragment::Kind::Trace) - Base);
  H = fnvU32(H, RT.CM.cacheEnd(Fragment::Kind::Trace) - Base);
  // Simulated front-end geometry (the image carries the raw tables).
  H = fnvU32(H, BranchPredictors::CondEntries);
  H = fnvU32(H, BranchPredictors::BtbEntries);
  H = fnvU32(H, BranchPredictors::RasDepth);
  return H;
}

bool CacheCodec::quiescent(Runtime &RT) {
  // A client's transformed code is serializable only if the client vouches
  // that replaying the saved bytes without re-running its hooks is
  // equivalent (Client::persistSafe); anything else still refuses.
  if ((RT.TheClient && !RT.TheClient->persistSafe()) ||
      RT.Config.Mode != ExecMode::Cache)
    return false;
  if (RT.InCleanCall)
    return false;
  // Unconsumed code-write events would flush fragments the image keeps.
  if (RT.CodeWriteCursor != RT.M.codeWriteLog().size())
    return false;
  // No thread may be suspended inside cache code or mid-trace-recording:
  // both hold state (a resume cache pc, a partial block list) that only
  // exists relative to this process's live runtime.
  for (const auto &C : RT.Contexts)
    if (C->ResumePoint == ThreadContext::Resume::InCache || C->TraceGenActive)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool CacheCodec::save(Runtime &RT, std::vector<uint8_t> &Out) {
  if (!quiescent(RT))
    return false;
  Machine &M = RT.M;
  uint32_t Base = RT.Slots.DispatcherEntry;

  // Live fragments in registration order (restore order reproduces the
  // FIFO). Doomed fragments are dropped: their pending slots become plain
  // free space, which is exactly the state an uninterrupted run reaches at
  // its next allocation (quiescence means no guard pcs block reclaim).
  std::vector<Fragment *> Live;
  std::unordered_map<const Fragment *, uint32_t> LiveIdx;
  for (const auto &F : RT.Fragments) {
    if (F->Doomed)
      continue;
    LiveIdx.emplace(F.get(), uint32_t(Live.size()));
    Live.push_back(F.get());
  }

  uint64_t AppHash = fnv1aInit();
  for (const Fragment *F : Live)
    for (const AppRange &R : F->AppRanges) {
      AppHash = fnvU32(AppHash, R.Lo);
      AppHash = fnvU32(AppHash, R.Hi);
      M.mem().forEachSpan(R.Lo, R.Hi - R.Lo,
                          [&](const uint8_t *Run, uint32_t Len) {
                            AppHash = fnv1a(AppHash, Run, Len);
                          });
    }

  ByteWriter P;
  P.u64(configHash(RT));
  P.u64(AppHash);
  P.u64(uint64_t(M.codeWriteLog().size()));
  P.u32(Base);
  P.u32(RT.CM.cacheStart(Fragment::Kind::BasicBlock) - Base);
  P.u32(RT.CM.cacheEnd(Fragment::Kind::BasicBlock) - Base);
  P.u32(RT.CM.cacheStart(Fragment::Kind::Trace) - Base);
  P.u32(RT.CM.cacheEnd(Fragment::Kind::Trace) - Base);

  P.u32(uint32_t(Live.size()));
  for (const Fragment *F : Live) {
    P.u32(F->Tag);
    P.u8(F->isTrace() ? 1 : 0);
    P.u8(F->IsTraceHead ? 1 : 0);
    P.u32(F->CacheAddr - Base);
    P.u32(F->CodeSize);
    P.u32(F->StubsSize);
    P.u32(F->NumInstrs);
    P.u64(F->BirthCycles);

    P.u32(uint32_t(F->Exits.size()));
    for (const FragmentExit &E : F->Exits) {
      bool Direct = E.ExitKind == FragmentExit::Kind::Direct;
      P.u8(Direct ? 0 : 1);
      uint8_t Flags = 0;
      if (E.AlwaysThroughStub)
        Flags |= FlagAlwaysThroughStub;
      if (E.Linked)
        Flags |= FlagLinked;
      if (E.IsIbArm)
        Flags |= FlagIsIbArm;
      if (E.IbMiss)
        Flags |= FlagIbMiss;
      if (E.IsGuard)
        Flags |= FlagIsGuard;
      P.u8(Flags);
      P.u32(E.TargetTag);
      P.u32(E.CtiOff);
      P.u32(E.CtiLen);
      P.u32(E.StubOff);
      P.u32(E.StubJmpOff);
      P.u32(E.StubJmpLen);
      P.u32(E.SourceAppPc);
      uint32_t LinkedIdx = ~0u;
      if (E.Linked) {
        auto It = LiveIdx.find(E.LinkedTo);
        if (It == LiveIdx.end())
          return false; // linked to a doomed fragment: not quiescent after all
        LinkedIdx = It->second;
      }
      P.u32(LinkedIdx);
    }

    P.u32(uint32_t(F->AppRanges.size()));
    for (const AppRange &R : F->AppRanges) {
      P.u32(R.Lo);
      P.u32(R.Hi);
    }
    P.u32(uint32_t(F->CodeMap.size()));
    for (const CodePoint &C : F->CodeMap) {
      P.u32(C.Off);
      P.u32(C.App);
      P.u8(C.Linear ? 1 : 0);
    }
    // Versioned-publication metadata (traces; empty for basic blocks): the
    // OSR descriptors let a loaded trace's threads transfer out when a
    // sideline publication supersedes it, and the constituent block list
    // is what deoptimization rebuilds from.
    P.u32(uint32_t(F->OsrPoints.size()));
    for (const OsrPoint &O : F->OsrPoints) {
      P.u32(O.CtiOff);
      P.u32(O.StubOff);
      P.u32(O.StubEnd);
      P.u32(O.ResumeApp);
      P.u32(O.TakenApp);
    }
    P.u32(uint32_t(F->TraceBlocks.size()));
    for (AppPc B : F->TraceBlocks)
      P.u32(B);
    M.mem().forEachSpan(
        F->CacheAddr, F->CodeSize + F->StubsSize,
        [&](const uint8_t *Run, uint32_t Len) { P.bytes(Run, Len); });
  }

  // Fragment-table entries, sorted by tag so identical warmed states
  // serialize to identical bytes regardless of table history.
  std::vector<const FragmentEntry *> Entries;
  RT.Table.forEachEntry([&](const FragmentEntry &E) { Entries.push_back(&E); });
  std::sort(Entries.begin(), Entries.end(),
            [](const FragmentEntry *A, const FragmentEntry *B) {
              return A->Tag < B->Tag;
            });
  P.u32(uint32_t(Entries.size()));
  for (const FragmentEntry *E : Entries) {
    P.u32(E->Tag);
    uint32_t FragIdx = ~0u;
    if (E->Frag) {
      auto It = LiveIdx.find(E->Frag);
      FragIdx = It == LiveIdx.end() ? ~0u : It->second;
    }
    P.u32(FragIdx);
    P.u32(E->HeadCounter);
    P.u8(E->Marked ? 1 : 0);
  }

  // Indirect-branch site histograms, sorted by site pc (same reason).
  std::vector<AppPc> Sites;
  for (const auto &[Site, Prof] : RT.IbProfiles)
    Sites.push_back(Site);
  std::sort(Sites.begin(), Sites.end());
  P.u32(uint32_t(Sites.size()));
  for (AppPc Site : Sites) {
    const Runtime::IbSiteProfile &Prof = RT.IbProfiles[Site];
    P.u32(Site);
    P.u64(Prof.Total);
    P.u64(Prof.Other);
    for (unsigned K = 0; K != Runtime::IbSiteProfile::MaxTargets; ++K) {
      P.u32(Prof.Targets[K]);
      P.u64(Prof.Counts[K]);
    }
  }

  // Shadow-block bindings, sorted by tag. Shadows are plain cache-resident
  // fragments already serialized above; only the tag binding is extra.
  std::vector<std::pair<AppPc, const Fragment *>> Shadows(RT.ShadowBbs.begin(),
                                                          RT.ShadowBbs.end());
  std::sort(Shadows.begin(), Shadows.end());
  P.u32(uint32_t(Shadows.size()));
  for (const auto &[Tag, Frag] : Shadows) {
    auto It = LiveIdx.find(Frag);
    if (It == LiveIdx.end())
      return false; // shadow map points at a doomed fragment
    P.u32(Tag);
    P.u32(It->second);
  }

  // Simulated front-end state (see the file comment: restoring it is what
  // makes warm steady-state cycle accounting match the saved run's).
  BranchPredictors &Pred = M.predictors();
  P.bytes(Pred.condTable(), BranchPredictors::CondEntries);
  for (unsigned I = 0; I != BranchPredictors::BtbEntries; ++I)
    P.u32(Pred.btb()[I]);
  for (unsigned I = 0; I != BranchPredictors::RasDepth; ++I)
    P.u32(Pred.ras()[I]);
  P.u32(Pred.rasTop());

  // Speculation history: per-tag guard-failure counters and the blacklist.
  // Without these a warm restart would re-speculate tags the saved run
  // already proved unstable, replaying the whole deopt storm; with them the
  // restored run resumes from the same refuse-to-speculate state. Both
  // containers are ordered, so the serialization is canonical.
  P.u32(uint32_t(RT.GuardFailCounts.size()));
  for (const auto &[Tag, Fails] : RT.GuardFailCounts) {
    P.u32(Tag);
    P.u32(Fails);
  }
  P.u32(uint32_t(RT.TraceOptBlacklist.size()));
  for (AppPc Tag : RT.TraceOptBlacklist)
    P.u32(Tag);

  std::vector<uint8_t> Payload = P.take();
  ByteWriter H;
  H.u32(CacheImageMagic);
  H.u32(CacheImageVersion);
  H.u64(fnv1a(fnv1aInit(), Payload.data(), Payload.size()));
  Out = H.take();
  Out.insert(Out.end(), Payload.begin(), Payload.end());

  RT.S.PersistBytesWritten += Out.size();
  RT.obsEvent(TraceEventKind::PersistSaved, uint32_t(Live.size()),
              uint32_t(Out.size()));
  return true;
}

//===----------------------------------------------------------------------===//
// Parse (validation, relocation, exit renumbering — no side effects)
//===----------------------------------------------------------------------===//

LoadStatus CacheCodec::parse(Runtime &RT, const uint8_t *Data, size_t Size,
                             Image &Out, bool Trusted) {
  // The target must be cold: restoring over built state would corrupt the
  // link graph and exit-record numbering.
  if ((RT.TheClient && !RT.TheClient->persistSafe()) ||
      RT.Config.Mode != ExecMode::Cache || !RT.Fragments.empty() ||
      !RT.ExitRecords.empty() || RT.Table.size() != 0)
    return LoadStatus::NotCold;

  if (!Data || Size < HeaderBytes)
    return LoadStatus::Truncated;
  ByteReader H(Data, HeaderBytes);
  if (H.u32() != CacheImageMagic)
    return LoadStatus::BadMagic;
  if (H.u32() != CacheImageVersion)
    return LoadStatus::BadVersion;
  uint64_t Checksum = H.u64();
  const uint8_t *Payload = Data + HeaderBytes;
  size_t PayloadSize = Size - HeaderBytes;
  if (fnv1a(fnv1aInit(), Payload, PayloadSize) != Checksum)
    return LoadStatus::BadChecksum;

  Machine &M = RT.M;
  uint32_t NewBase = RT.Slots.DispatcherEntry;
  uint32_t BbStart = RT.CM.cacheStart(Fragment::Kind::BasicBlock);
  uint32_t BbEnd = RT.CM.cacheEnd(Fragment::Kind::BasicBlock);
  uint32_t TrStart = RT.CM.cacheStart(Fragment::Kind::Trace);
  uint32_t TrEnd = RT.CM.cacheEnd(Fragment::Kind::Trace);

  ByteReader R(Payload, PayloadSize);
  if (R.u64() != configHash(RT))
    return LoadStatus::ConfigMismatch;
  uint64_t AppHash = R.u64();
  uint64_t WriteGen = R.u64();
  uint32_t SavedBase = R.u32();
  uint32_t BbStartRel = R.u32(), BbEndRel = R.u32();
  uint32_t TrStartRel = R.u32(), TrEndRel = R.u32();
  if (!R.ok())
    return LoadStatus::Truncated;
  if (BbStartRel != BbStart - NewBase || BbEndRel != BbEnd - NewBase ||
      TrStartRel != TrStart - NewBase || TrEndRel != TrEnd - NewBase)
    return LoadStatus::GeometryMismatch;

  // SMC generation: on the machine the image was saved from, the log must
  // not have grown since (no code writes behind the image's back); a fresh
  // machine has an empty log, and the app-code hash below is the actual
  // content check.
  uint64_t CurGen = uint64_t(M.codeWriteLog().size());
  if (!Trusted && CurGen != 0 && CurGen != WriteGen)
    return LoadStatus::SmcGeneration;

  uint32_t Delta = NewBase - SavedBase; // mod 2^32: wrapping add relocates
  uint32_t SavedLo = SavedBase;
  uint32_t SavedHi = SavedBase + TrEndRel;

  uint32_t NumFrags = R.u32();
  if (!R.ok() || NumFrags > MaxFragments)
    return NumFrags > MaxFragments ? LoadStatus::Malformed
                                   : LoadStatus::Truncated;

  uint64_t LiveAppHash = fnv1aInit();
  Out.Frags.clear();
  Out.Frags.reserve(clampedReserve(R, NumFrags, 30)); // fixed frag fields
  Out.NumExitRecords = 0;

  for (uint32_t FI = 0; FI != NumFrags; ++FI) {
    Image::Frag F;
    F.Tag = R.u32();
    F.Kind = R.u8();
    F.IsTraceHead = R.u8();
    uint32_t AddrRel = R.u32();
    F.CodeSize = R.u32();
    F.StubsSize = R.u32();
    F.NumInstrs = R.u32();
    F.BirthCycles = R.u64();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (F.Kind > 1 || F.CodeSize == 0)
      return LoadStatus::Malformed;

    uint32_t KindStart = F.Kind ? TrStart : BbStart;
    uint32_t KindEnd = F.Kind ? TrEnd : BbEnd;
    uint64_t SlotLen = uint64_t(F.CodeSize) + F.StubsSize;
    uint64_t SlotRounded = (SlotLen + 3u) & ~uint64_t(3);
    F.NewAddr = AddrRel + NewBase;
    if (F.NewAddr < KindStart || SlotRounded > KindEnd ||
        uint64_t(F.NewAddr) + SlotRounded > KindEnd || (F.NewAddr & 3u) != 0)
      return LoadStatus::Malformed;

    uint32_t NumExits = R.u32();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (NumExits > MaxExitsPerFragment)
      return LoadStatus::Malformed;
    F.Exits.reserve(clampedReserve(R, NumExits, 34));
    for (uint32_t EI = 0; EI != NumExits; ++EI) {
      Image::Exit E;
      E.ExitKind = R.u8();
      E.Flags = R.u8();
      E.TargetTag = R.u32();
      E.CtiOff = R.u32();
      E.CtiLen = R.u32();
      E.StubOff = R.u32();
      E.StubJmpOff = R.u32();
      E.StubJmpLen = R.u32();
      E.SourceAppPc = R.u32();
      E.LinkedToIdx = R.u32();
      if (!R.ok())
        return LoadStatus::Truncated;
      if (E.ExitKind > 1)
        return LoadStatus::Malformed;
      if (uint64_t(E.CtiOff) + E.CtiLen > F.CodeSize ||
          E.CtiLen > MaxInstrLength)
        return LoadStatus::Malformed;
      bool Direct = E.ExitKind == 0;
      if (Direct) {
        // The CTI's rel32 is its last four bytes; stubs follow the body,
        // and the stub's final jmp is preceded by the exit-id (or arm
        // target) mov whose imm32 ends exactly where the jmp begins.
        if (E.CtiLen < 5)
          return LoadStatus::Malformed;
        // All in 64-bit: StubOff near UINT32_MAX must not wrap the +4 into
        // a comparison that accepts StubJmpOff < 4 (and then underflows the
        // exit-id patch offset below).
        if (E.StubOff < F.CodeSize || uint64_t(E.StubOff) >= SlotLen ||
            uint64_t(E.StubJmpOff) < uint64_t(E.StubOff) + 4 ||
            uint64_t(E.StubJmpOff) + E.StubJmpLen > SlotLen ||
            E.StubJmpLen < 5 || E.StubJmpLen > MaxInstrLength)
          return LoadStatus::Malformed;
        E.NewExitId = Out.NumExitRecords++;
        // Speculation guards are direct exits that the linker must never
        // touch: a guard flagged linked contradicts the runtime invariant
        // and would replay a patched-over bail-out path.
        if ((E.Flags & FlagIsGuard) && (E.Flags & FlagLinked))
          return LoadStatus::Malformed;
      } else {
        if (E.Flags &
            (FlagLinked | FlagIsIbArm | FlagAlwaysThroughStub | FlagIsGuard))
          return LoadStatus::Malformed;
      }
      if ((E.Flags & FlagLinked) && E.LinkedToIdx >= NumFrags)
        return LoadStatus::Malformed;
      if (!(E.Flags & FlagLinked))
        E.LinkedToIdx = ~0u;
      F.Exits.push_back(E);
    }

    uint32_t NumRanges = R.u32();
    if (!R.ok() || NumRanges > MaxRecordsPerFragment)
      return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
    F.Ranges.reserve(clampedReserve(R, NumRanges, 8));
    for (uint32_t RI = 0; RI != NumRanges; ++RI) {
      AppRange Range;
      Range.Lo = R.u32();
      Range.Hi = R.u32();
      if (!R.ok())
        return LoadStatus::Truncated;
      if (Range.Lo >= Range.Hi || Range.Hi > M.runtimeBase())
        return LoadStatus::Malformed;
      if (!Trusted) {
        LiveAppHash = fnvU32(LiveAppHash, Range.Lo);
        LiveAppHash = fnvU32(LiveAppHash, Range.Hi);
        M.mem().forEachSpan(Range.Lo, Range.Hi - Range.Lo,
                            [&](const uint8_t *Run, uint32_t Len) {
                              LiveAppHash = fnv1a(LiveAppHash, Run, Len);
                            });
      }
      F.Ranges.push_back(Range);
    }

    uint32_t NumPoints = R.u32();
    if (!R.ok() || NumPoints > MaxRecordsPerFragment)
      return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
    F.Points.reserve(clampedReserve(R, NumPoints, 9));
    for (uint32_t PI = 0; PI != NumPoints; ++PI) {
      CodePoint Pt;
      Pt.Off = R.u32();
      Pt.App = R.u32();
      Pt.Linear = R.u8() != 0;
      if (!R.ok())
        return LoadStatus::Truncated;
      if (Pt.Off >= F.CodeSize)
        return LoadStatus::Malformed;
      F.Points.push_back(Pt);
    }

    uint32_t NumOsr = R.u32();
    if (!R.ok() || NumOsr > MaxExitsPerFragment)
      return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
    if (F.Kind == 0 && NumOsr != 0)
      return LoadStatus::Malformed; // OSR descriptors are trace-only
    F.Osr.reserve(clampedReserve(R, NumOsr, 20));
    for (uint32_t OI = 0; OI != NumOsr; ++OI) {
      OsrPoint O;
      O.CtiOff = R.u32();
      O.StubOff = R.u32();
      O.StubEnd = R.u32();
      O.ResumeApp = R.u32();
      O.TakenApp = R.u32();
      if (!R.ok())
        return LoadStatus::Truncated;
      // Offsets are slot-relative: the CTI inside the body, the stub range
      // inside the stub area, app pcs inside the application region.
      if (O.CtiOff >= F.CodeSize || O.StubOff < F.CodeSize ||
          uint64_t(O.StubEnd) > SlotLen || O.StubEnd <= O.StubOff ||
          O.ResumeApp >= M.runtimeBase() || O.TakenApp >= M.runtimeBase())
        return LoadStatus::Malformed;
      F.Osr.push_back(O);
    }

    uint32_t NumBlocks = R.u32();
    if (!R.ok() || NumBlocks > MaxRecordsPerFragment)
      return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
    if (F.Kind == 0 && NumBlocks != 0)
      return LoadStatus::Malformed; // block lists are trace-only
    F.NetBlocks.reserve(clampedReserve(R, NumBlocks, 4));
    for (uint32_t BI = 0; BI != NumBlocks; ++BI) {
      uint32_t B = R.u32();
      if (!R.ok())
        return LoadStatus::Truncated;
      if (B >= M.runtimeBase())
        return LoadStatus::Malformed;
      F.NetBlocks.push_back(B);
    }

    F.Bytes.resize(size_t(SlotLen));
    if (!R.bytes(F.Bytes.data(), size_t(SlotLen)))
      return LoadStatus::Truncated;
    Out.Frags.push_back(std::move(F));
  }

  // Cross-fragment checks: link targets must carry the tag the exit was
  // linked for, and slots must not overlap (the target caches are empty,
  // so non-overlapping in-range slots are guaranteed carveable).
  for (const Image::Frag &F : Out.Frags)
    for (const Image::Exit &E : F.Exits)
      if (E.LinkedToIdx != ~0u &&
          Out.Frags[E.LinkedToIdx].Tag != E.TargetTag)
        return LoadStatus::Malformed;
  {
    std::vector<std::pair<uint32_t, uint32_t>> Slots; // addr, rounded len
    Slots.reserve(Out.Frags.size());
    for (const Image::Frag &F : Out.Frags)
      Slots.emplace_back(F.NewAddr,
                         (F.CodeSize + F.StubsSize + 3u) & ~3u);
    std::sort(Slots.begin(), Slots.end());
    for (size_t I = 1; I < Slots.size(); ++I)
      if (Slots[I - 1].first + Slots[I - 1].second > Slots[I].first)
        return LoadStatus::Malformed;
  }

  if (!Trusted && LiveAppHash != AppHash)
    return LoadStatus::AppImageMismatch;

  uint32_t NumEntries = R.u32();
  if (!R.ok() || NumEntries > MaxTableEntries)
    return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
  Out.Entries.clear();
  Out.Entries.reserve(clampedReserve(R, NumEntries, 13));
  for (uint32_t I = 0; I != NumEntries; ++I) {
    Image::TableEntry E;
    E.Tag = R.u32();
    E.FragIdx = R.u32();
    E.HeadCounter = R.u32();
    E.Marked = R.u8();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (E.FragIdx != ~0u &&
        (E.FragIdx >= NumFrags || Out.Frags[E.FragIdx].Tag != E.Tag))
      return LoadStatus::Malformed;
    // save() writes entries sorted by tag; demanding strictly increasing
    // keys both rejects duplicates (which apply() would resolve last-wins,
    // silently) and pins the canonical serialization.
    if (!Out.Entries.empty() && E.Tag <= Out.Entries.back().Tag)
      return LoadStatus::Malformed;
    Out.Entries.push_back(E);
  }

  uint32_t NumSites = R.u32();
  if (!R.ok() || NumSites > MaxIbSites)
    return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
  Out.IbSites.clear();
  Out.IbSites.reserve(clampedReserve(R, NumSites, 116));
  for (uint32_t I = 0; I != NumSites; ++I) {
    Image::IbSite S;
    S.SiteAppPc = R.u32();
    S.Total = R.u64();
    S.Other = R.u64();
    for (unsigned K = 0; K != 8; ++K) {
      S.Targets[K] = R.u32();
      S.Counts[K] = R.u64();
    }
    if (!R.ok())
      return LoadStatus::Truncated;
    if (!Out.IbSites.empty() && S.SiteAppPc <= Out.IbSites.back().SiteAppPc)
      return LoadStatus::Malformed; // must be sorted by site pc, unique
    Out.IbSites.push_back(S);
  }

  uint32_t NumShadows = R.u32();
  if (!R.ok() || NumShadows > MaxFragments)
    return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
  Out.Shadows.clear();
  Out.Shadows.reserve(clampedReserve(R, NumShadows, 8));
  for (uint32_t I = 0; I != NumShadows; ++I) {
    Image::Shadow S;
    S.Tag = R.u32();
    S.FragIdx = R.u32();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (S.FragIdx >= NumFrags || Out.Frags[S.FragIdx].Tag != S.Tag ||
        Out.Frags[S.FragIdx].Kind != 0)
      return LoadStatus::Malformed; // shadows are always basic blocks
    if (!Out.Shadows.empty() && S.Tag <= Out.Shadows.back().Tag)
      return LoadStatus::Malformed; // must be sorted by tag, unique
    Out.Shadows.push_back(S);
  }

  Out.CondTable.resize(BranchPredictors::CondEntries);
  if (!R.bytes(Out.CondTable.data(), Out.CondTable.size()))
    return LoadStatus::Truncated;
  for (uint8_t C : Out.CondTable)
    if (C > 3)
      return LoadStatus::Malformed; // two-bit counters
  Out.Btb.resize(BranchPredictors::BtbEntries);
  for (uint32_t &B : Out.Btb)
    B = R.u32();
  Out.Ras.resize(BranchPredictors::RasDepth);
  for (uint32_t &V : Out.Ras)
    V = R.u32();
  Out.RasTop = R.u32();
  if (!R.ok())
    return LoadStatus::Truncated;

  // Speculation history tables (see save). Both are sorted strictly
  // increasing by tag — the canonical form std::map/std::set serialize to —
  // and a failure count of zero is impossible (the dispatcher only inserts
  // a counter when it increments it).
  uint32_t NumGuardFails = R.u32();
  if (!R.ok() || NumGuardFails > MaxFragments)
    return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
  Out.GuardFails.clear();
  Out.GuardFails.reserve(clampedReserve(R, NumGuardFails, 8));
  for (uint32_t I = 0; I != NumGuardFails; ++I) {
    uint32_t Tag = R.u32();
    uint32_t Fails = R.u32();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (Fails == 0 ||
        (!Out.GuardFails.empty() && Tag <= Out.GuardFails.back().first))
      return LoadStatus::Malformed;
    Out.GuardFails.emplace_back(Tag, Fails);
  }
  uint32_t NumBlacklisted = R.u32();
  if (!R.ok() || NumBlacklisted > MaxFragments)
    return R.ok() ? LoadStatus::Malformed : LoadStatus::Truncated;
  Out.Blacklist.clear();
  Out.Blacklist.reserve(clampedReserve(R, NumBlacklisted, 4));
  for (uint32_t I = 0; I != NumBlacklisted; ++I) {
    uint32_t Tag = R.u32();
    if (!R.ok())
      return LoadStatus::Truncated;
    if (!Out.Blacklist.empty() && Tag <= Out.Blacklist.back())
      return LoadStatus::Malformed;
    Out.Blacklist.push_back(Tag);
  }

  if (!R.atEnd())
    return LoadStatus::Malformed; // trailing garbage

  // Relocate instruction bytes for the base shift (no-op when the image
  // loads at the base it was saved from), then renumber exit-id stub
  // immediates: the image's ids were positions in the *saved* exit-record
  // array; the restored array is packed in restore order.
  Arena A(1u << 12);
  for (Image::Frag &F : Out.Frags) {
    if (Delta != 0) {
      if (!relocateRange(F.Bytes, 0, F.CodeSize, F.NewAddr, Delta, SavedLo,
                         SavedHi, A))
        return LoadStatus::Malformed;
      for (const Image::Exit &E : F.Exits)
        if (E.ExitKind == 0 &&
            !relocateRange(F.Bytes, E.StubOff, E.StubJmpOff + E.StubJmpLen,
                           F.NewAddr, Delta, SavedLo, SavedHi, A))
          return LoadStatus::Malformed;
    }
    for (const Image::Exit &E : F.Exits)
      if (E.ExitKind == 0 && !(E.Flags & FlagIsIbArm))
        write32At(F.Bytes, E.StubJmpOff - 4, E.NewExitId);
  }
  return LoadStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Apply (infallible: the image is fully validated)
//===----------------------------------------------------------------------===//

void CacheCodec::apply(Runtime &RT, Image &Img, size_t ImageBytes,
                       bool Trusted) {
  Machine &M = RT.M;
  std::vector<Fragment *> Frags;
  Frags.reserve(Img.Frags.size());

  for (const Image::Frag &F : Img.Frags) {
    auto *G = new Fragment();
    RT.Fragments.emplace_back(G);
    G->Tag = F.Tag;
    G->FragKind = F.Kind ? Fragment::Kind::Trace : Fragment::Kind::BasicBlock;
    G->CacheAddr = F.NewAddr;
    G->CodeSize = F.CodeSize;
    G->StubsSize = F.StubsSize;
    G->NumInstrs = F.NumInstrs;
    G->BirthCycles = F.BirthCycles;
    G->IsTraceHead = F.IsTraceHead != 0;
    G->AppRanges = F.Ranges;
    G->CodeMap = F.Points;
    G->OsrPoints = F.Osr;
    G->TraceBlocks.assign(F.NetBlocks.begin(), F.NetBlocks.end());
    for (const Image::Exit &E : F.Exits) {
      FragmentExit X;
      X.ExitKind = E.ExitKind == 0 ? FragmentExit::Kind::Direct
                                   : FragmentExit::Kind::Indirect;
      X.TargetTag = E.TargetTag;
      X.CtiOff = E.CtiOff;
      X.CtiLen = E.CtiLen;
      X.StubOff = E.StubOff;
      X.StubJmpOff = E.StubJmpOff;
      X.StubJmpLen = E.StubJmpLen;
      X.SourceAppPc = E.SourceAppPc;
      X.AlwaysThroughStub = (E.Flags & FlagAlwaysThroughStub) != 0;
      X.IsIbArm = (E.Flags & FlagIsIbArm) != 0;
      X.IbMiss = (E.Flags & FlagIbMiss) != 0;
      X.IsGuard = (E.Flags & FlagIsGuard) != 0;
      if (X.ExitKind == FragmentExit::Kind::Direct) {
        X.ExitId = E.NewExitId;
        assert(E.NewExitId == RT.ExitRecords.size() &&
               "restore order must match exit-id numbering");
        RT.ExitRecords.emplace_back(G, unsigned(G->Exits.size()));
      }
      G->Exits.push_back(X);
    }

    uint32_t Len = F.CodeSize + F.StubsSize;
    M.mem().writeBlock(F.NewAddr, F.Bytes.data(), Len);
    M.invalidateDecodeRange(F.NewAddr, F.NewAddr + Len);
    bool Carved = RT.CM.carveRange(G->FragKind, F.NewAddr, Len);
    assert(Carved && "validated slot must be carveable from a cold cache");
    (void)Carved;
    RT.CM.registerFragment(G);

    for (FragmentExit &X : G->Exits)
      if (X.IsIbArm) {
        RT.addIbArmPc(X.ctiAddr(*G), X.ExitId);
        RT.IbArmStubSites[X.stubJmpAddr(*G)] = X.ExitId;
      }
    Frags.push_back(G);
  }

  // Link state: set directly from the image rather than via linkExit so
  // restoration neither re-patches bytes (they are already linked) nor
  // counts toward links_made.
  for (size_t FI = 0; FI != Img.Frags.size(); ++FI) {
    Fragment *G = Frags[FI];
    const Image::Frag &F = Img.Frags[FI];
    for (size_t EI = 0; EI != F.Exits.size(); ++EI) {
      const Image::Exit &E = F.Exits[EI];
      if (E.LinkedToIdx == ~0u)
        continue;
      FragmentExit &X = G->Exits[EI];
      X.Linked = true;
      X.LinkedTo = Frags[E.LinkedToIdx];
      X.LinkedTo->IncomingLinks.push_back(X.ExitId);
    }
  }

  for (const Image::TableEntry &E : Img.Entries) {
    FragmentEntry &Slot = RT.Table.slot(E.Tag);
    Slot.HeadCounter = E.HeadCounter;
    Slot.Marked = E.Marked != 0;
    if (E.FragIdx != ~0u)
      Slot.Frag = Frags[E.FragIdx];
  }

  for (const Image::Shadow &S : Img.Shadows)
    RT.ShadowBbs[S.Tag] = Frags[S.FragIdx];

  BranchPredictors &Pred = M.predictors();
  std::memcpy(Pred.condTable(), Img.CondTable.data(), Img.CondTable.size());
  std::memcpy(Pred.btb(), Img.Btb.data(), Img.Btb.size() * sizeof(uint32_t));
  std::memcpy(Pred.ras(), Img.Ras.data(), Img.Ras.size() * sizeof(uint32_t));
  Pred.rasTop() = Img.RasTop;

  for (const Image::IbSite &S : Img.IbSites) {
    Runtime::IbSiteProfile P;
    P.Total = S.Total;
    P.Other = S.Other;
    for (unsigned K = 0; K != Runtime::IbSiteProfile::MaxTargets; ++K) {
      P.Targets[K] = S.Targets[K];
      P.Counts[K] = S.Counts[K];
    }
    RT.IbProfiles.emplace(S.SiteAppPc, P);
  }

  // Speculation history: restored on the trusted (fork/unshare) path too —
  // a tenant that unshares must keep refusing tags its shared ancestry
  // already blacklisted, not rediscover the instability one deopt storm at
  // a time. Merge by max: counters are monotone, and an unsharing tenant
  // may have accumulated failures past the template's freeze-time snapshot
  // (on a cold load the maps are empty and this is a plain restore).
  for (const auto &[Tag, Fails] : Img.GuardFails) {
    uint32_t &Slot = RT.GuardFailCounts[Tag];
    Slot = std::max(Slot, Fails);
  }
  for (uint32_t Tag : Img.Blacklist)
    RT.TraceOptBlacklist.insert(Tag);

  if (Trusted)
    return; // clone restore: the fork engine owns the cursor (pending SMC
            // events must still drain) and this is not a persist event

  // The write-log cursor starts past everything already in the log: those
  // events predate the image (the app-code hash vouched for the current
  // bytes), and a zero cursor would immediately flush every restored
  // fragment whose source was ever written.
  RT.CodeWriteCursor = M.codeWriteLog().size();

  RT.S.CacheWarmHits += Img.Frags.size();
  RT.obsEvent(TraceEventKind::PersistLoaded, uint32_t(Img.Frags.size()),
              uint32_t(ImageBytes));
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

LoadStatus CacheCodec::load(Runtime &RT, const uint8_t *Data, size_t Size) {
  Image Img;
  LoadStatus Status = parse(RT, Data, Size, Img);
  if (Status != LoadStatus::Ok) {
    ++RT.S.CacheWarmRejects;
    RT.obsEvent(TraceEventKind::PersistRejected, uint32_t(Status),
                uint32_t(Size));
    return Status;
  }
  apply(RT, Img, Size);
  return LoadStatus::Ok;
}

LoadStatus CacheCodec::validate(Runtime &RT, const uint8_t *Data,
                                size_t Size) {
  Image Img;
  return parse(RT, Data, Size, Img);
}

LoadStatus CacheCodec::loadClone(Runtime &RT, const uint8_t *Data,
                                 size_t Size) {
  Image Img;
  LoadStatus Status = parse(RT, Data, Size, Img, /*Trusted=*/true);
  if (Status != LoadStatus::Ok)
    return Status;
  apply(RT, Img, Size, /*Trusted=*/true);
  return LoadStatus::Ok;
}
