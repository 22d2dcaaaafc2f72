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
//   payload  preamble: config hash, app-code hash, write-monitor
//              generation, saved runtime-region base, base-relative
//              bb/trace cache bounds
//            u32 fragment count, then per fragment: identity/geometry,
//              exit records, app ranges, code map, OSR descriptors, raw
//              slot bytes (body + stubs)
//            fragment-table entries, sorted by tag
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
// Each record's fields are named exactly once, in a CacheCodec::Walk member
// templated on direction: save() runs the walks over a ByteWriter, parse()
// over the bounds-checked ByteReader, so a field cannot be written in one
// order and read in another. The walks are the format's definition.
//
// The loader is strictly parse-then-apply: parse() reads straight into
// unregistered runtime fragments and tables held in the Image, checking
// every record next to the read it guards (the walks run those checks on
// save too, where they hold by construction), enforcing the canonical
// sorted key order of the tables, resolving link indices, verifying all
// four validation hashes, relocating instruction bytes for a base shift,
// and renumbering exit ids — all in host memory. Only a fully valid image
// reaches apply(), which places, carves and registers the fragments and
// installs the tables (infallibly).
//
//===----------------------------------------------------------------------===//

#include "persist/CacheImage.h"

#include "core/Runtime.h"
#include "ir/Instr.h"
#include "isa/Decode.h"
#include "support/Arena.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

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

/// Folds one application range — its bounds, then the machine's current
/// bytes in it — into the app-code hash.
uint64_t hashAppRange(uint64_t H, Machine &M, const AppRange &R) {
  H = fnvU32(fnvU32(H, R.Lo), R.Hi);
  M.mem().forEachSpan(R.Lo, R.Hi - R.Lo,
                      [&](const uint8_t *Run, uint32_t Len) {
                        H = fnv1a(H, Run, Len);
                      });
  return H;
}

/// Little-endian image writer with ByteReader's interface, so one record
/// walk serves both directions.
class ByteWriter {
public:
  static constexpr bool Reading = false;

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
  bool ok() const { return true; }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader. Every accessor stores zero past
/// the end and latches !ok(); walks check once per record, so a truncated
/// image can never read out of bounds or spin on garbage counts.
class ByteReader {
public:
  static constexpr bool Reading = true;

  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  void u8(uint8_t &V) { V = ensure(1) ? Data[Pos++] : 0; }
  void u32(uint32_t &V) {
    if (!ensure(4)) {
      V = 0;
      return;
    }
    V = uint32_t(Data[Pos]) | uint32_t(Data[Pos + 1]) << 8 |
        uint32_t(Data[Pos + 2]) << 16 | uint32_t(Data[Pos + 3]) << 24;
    Pos += 4;
  }
  void u64(uint64_t &V) {
    uint32_t Lo = 0, Hi = 0;
    u32(Lo);
    u32(Hi);
    V = Lo | uint64_t(Hi) << 32;
  }
  void bytes(uint8_t *Dst, size_t Len) {
    if (!ensure(Len))
      return;
    std::memcpy(Dst, Data + Pos, Len);
    Pos += Len;
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

void write32At(std::vector<uint8_t> &Buf, size_t Off, uint32_t V) {
  Buf[Off] = uint8_t(V);
  Buf[Off + 1] = uint8_t(V >> 8);
  Buf[Off + 2] = uint8_t(V >> 16);
  Buf[Off + 3] = uint8_t(V >> 24);
}

/// The exit flag byte: one bit per FragmentExit flag.
constexpr std::pair<uint8_t, bool FragmentExit::*> ExitFlags[] = {
    {1u << 0, &FragmentExit::AlwaysThroughStub},
    {1u << 1, &FragmentExit::Linked},
    {1u << 2, &FragmentExit::IsIbArm},
    {1u << 3, &FragmentExit::IbMiss},
};

/// The payload's fixed-size start.
struct Preamble {
  uint64_t ConfigHash = 0; ///< RuntimeConfig + CostModel + region layout
  uint64_t AppHash = 0;    ///< bytes of every fragment's AppRanges
  uint64_t WriteGen = 0;   ///< machine code-write log length
  uint32_t Base = 0;       ///< saved runtime-region base
  uint32_t Bounds[4] = {}; ///< bb start/end, trace start/end; base-relative
};

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
// Host-side image
//===----------------------------------------------------------------------===//

/// The runtime's own types, unregistered. parse() fills every member;
/// save() fills the tables (sorted) to walk them.
struct CacheCodec::Image {
  /// Fragments in image order: exit ids renumbered, links and incoming
  /// links wired between these objects.
  std::vector<std::unique_ptr<Fragment>> Frags;
  std::vector<std::vector<uint8_t>> Slots; ///< per fragment, relocated
  std::vector<FragmentEntry> Entries;      ///< Frag points into Frags
  std::vector<std::pair<AppPc, Runtime::IbSiteProfile>> IbSites;
  std::vector<std::pair<AppPc, Fragment *>> Shadows;
  BranchPredictors Pred;
};

//===----------------------------------------------------------------------===//
// Record walks
//===----------------------------------------------------------------------===//

/// One walk per record, templated on the byte stream: each names the
/// record's fields in image order, then checks them against the geometry
/// of the runtime being saved or loaded. Values are read or written in
/// place; on save the assignments after the reads store back what was just
/// written. A walk returns false with Status set on the first failure.
struct CacheCodec::Walk {
  Walk(Runtime &RT, bool HashApp) : RT(RT), HashApp(HashApp) {}

  Runtime &RT;
  const bool HashApp; ///< fold app ranges into AppHash (parse)
  const uint32_t Base = RT.Slots.DispatcherEntry;
  /// Absolute cache bounds, indexed by isTrace().
  const uint32_t Start[2] = {RT.CM.cacheStart(Fragment::Kind::BasicBlock),
                             RT.CM.cacheStart(Fragment::Kind::Trace)};
  const uint32_t End[2] = {RT.CM.cacheEnd(Fragment::Kind::BasicBlock),
                           RT.CM.cacheEnd(Fragment::Kind::Trace)};
  uint64_t AppHash = fnv1aInit();
  uint32_t NumFrags = 0;
  std::vector<Fragment *> Frags; ///< image index -> fragment
  std::unordered_map<const Fragment *, uint32_t> Index; ///< save: inverse
  std::vector<uint32_t> Links; ///< per exit: linked fragment index or ~0u
  LoadStatus Status = LoadStatus::Ok;

  bool fail(LoadStatus S) {
    Status = S;
    return false;
  }
  bool malformed() { return fail(LoadStatus::Malformed); }
  template <class IO> bool got(IO &P) {
    return P.ok() || fail(LoadStatus::Truncated);
  }
  uint32_t indexOf(const Fragment *F) const {
    auto It = Index.find(F);
    return It == Index.end() ? ~0u : It->second;
  }

  /// A u32 count (over \p Max is malformed), then \p Each(element, previous
  /// element or null) over that many elements of \p V. Reading appends to
  /// an empty \p V, reserving no more than the remaining bytes can hold at
  /// \p MinBytes per element, so a short file never commands a large
  /// allocation.
  template <class IO, class T, class Fn>
  bool seq(IO &P, std::vector<T> &V, uint32_t Max, size_t MinBytes, Fn Each) {
    uint32_t N = uint32_t(V.size());
    if (!count(P, N, Max))
      return false;
    if constexpr (IO::Reading)
      V.reserve(std::min<size_t>(N, P.remaining() / MinBytes));
    for (uint32_t I = 0; I != N; ++I) {
      if constexpr (IO::Reading)
        V.emplace_back();
      if (!Each(V[I], I ? &V[I - 1] : nullptr))
        return false;
    }
    return true;
  }
  template <class IO> bool count(IO &P, uint32_t &N, uint32_t Max) {
    P.u32(N);
    return got(P) && (N <= Max || malformed());
  }

  template <class IO> bool preamble(IO &P, Preamble &H) {
    P.u64(H.ConfigHash);
    P.u64(H.AppHash);
    P.u64(H.WriteGen);
    P.u32(H.Base);
    for (uint32_t &B : H.Bounds)
      P.u32(B);
    if (H.ConfigHash != configHash(RT))
      return fail(LoadStatus::ConfigMismatch);
    if (!got(P))
      return false;
    if (H.Bounds[0] != Start[0] - Base || H.Bounds[1] != End[0] - Base ||
        H.Bounds[2] != Start[1] - Base || H.Bounds[3] != End[1] - Base)
      return fail(LoadStatus::GeometryMismatch);
    return true;
  }

  template <class IO> bool fragmentCount(IO &P) {
    NumFrags = uint32_t(Frags.size());
    return count(P, NumFrags, MaxFragments);
  }

  template <class IO>
  bool fragment(IO &P, Fragment &F, std::vector<uint8_t> &Slot) {
    uint8_t Kind = F.isTrace(), Head = F.IsTraceHead;
    uint32_t AddrRel = F.CacheAddr - Base;
    P.u32(F.Tag);
    P.u8(Kind);
    P.u8(Head);
    P.u32(AddrRel);
    P.u32(F.CodeSize);
    P.u32(F.StubsSize);
    P.u32(F.NumInstrs);
    P.u64(F.BirthCycles);
    if (!got(P))
      return false;
    if (Kind > 1 || F.CodeSize == 0)
      return malformed();
    F.FragKind = Kind ? Fragment::Kind::Trace : Fragment::Kind::BasicBlock;
    F.IsTraceHead = Head != 0;
    F.CacheAddr = Base + AddrRel;
    uint64_t SlotLen = uint64_t(F.CodeSize) + F.StubsSize;
    uint64_t SlotRounded = (SlotLen + 3u) & ~uint64_t(3);
    if (F.CacheAddr < Start[Kind] || SlotRounded > End[Kind] ||
        uint64_t(F.CacheAddr) + SlotRounded > End[Kind] ||
        (F.CacheAddr & 3u) != 0)
      return malformed();

    uint32_t AppLimit = RT.M.runtimeBase();
    auto Exit = [&](FragmentExit &E, const FragmentExit *) {
      return exit(P, F, E);
    };
    auto Range = [&](AppRange &R, const AppRange *) {
      P.u32(R.Lo);
      P.u32(R.Hi);
      if (!got(P))
        return false;
      if (R.Lo >= R.Hi || R.Hi > AppLimit)
        return malformed();
      if (HashApp)
        AppHash = hashAppRange(AppHash, RT.M, R);
      return true;
    };
    auto Point = [&](CodePoint &C, const CodePoint *) {
      uint8_t Linear = C.Linear;
      P.u32(C.Off);
      P.u32(C.App);
      P.u8(Linear);
      C.Linear = Linear != 0;
      return got(P) && (C.Off < F.CodeSize || malformed());
    };
    // Versioned-publication metadata: the OSR descriptors let a loaded
    // trace's threads transfer out when a sideline publication supersedes
    // it. Offsets are slot-relative: the CTI inside the body, the stub
    // range inside the stub area, app pcs inside the application region.
    auto Osr = [&](OsrPoint &O, const OsrPoint *) {
      P.u32(O.CtiOff);
      P.u32(O.StubOff);
      P.u32(O.StubEnd);
      P.u32(O.ResumeApp);
      P.u32(O.TakenApp);
      if (!got(P))
        return false;
      if (O.CtiOff >= F.CodeSize || O.StubOff < F.CodeSize ||
          uint64_t(O.StubEnd) > SlotLen || O.StubEnd <= O.StubOff ||
          O.ResumeApp >= AppLimit || O.TakenApp >= AppLimit)
        return malformed();
      return true;
    };
    // A basic block has no OSR descriptors.
    if (!seq(P, F.Exits, MaxExitsPerFragment, 34, Exit) ||
        !seq(P, F.AppRanges, MaxRecordsPerFragment, 8, Range) ||
        !seq(P, F.CodeMap, MaxRecordsPerFragment, 9, Point) ||
        !seq(P, F.OsrPoints, F.isTrace() ? MaxExitsPerFragment : 0, 20, Osr))
      return false;

    Slot.resize(size_t(SlotLen));
    P.bytes(Slot.data(), Slot.size());
    return got(P);
  }

  template <class IO>
  bool exit(IO &P, const Fragment &F, FragmentExit &E) {
    uint8_t Kind = E.ExitKind == FragmentExit::Kind::Indirect;
    uint8_t Flags = 0;
    for (auto [Bit, Field] : ExitFlags)
      Flags |= E.*Field ? Bit : 0;
    uint32_t Link = E.Linked ? indexOf(E.LinkedTo) : ~0u;
    P.u8(Kind);
    P.u8(Flags);
    P.u32(E.TargetTag);
    P.u32(E.CtiOff);
    P.u32(E.CtiLen);
    P.u32(E.StubOff);
    P.u32(E.StubJmpOff);
    P.u32(E.StubJmpLen);
    P.u32(E.SourceAppPc);
    P.u32(Link);
    if (!got(P))
      return false;
    if (Kind > 1)
      return malformed();
    E.ExitKind =
        Kind ? FragmentExit::Kind::Indirect : FragmentExit::Kind::Direct;
    for (auto [Bit, Field] : ExitFlags)
      E.*Field = (Flags & Bit) != 0;

    if (uint64_t(E.CtiOff) + E.CtiLen > F.CodeSize ||
        E.CtiLen > MaxInstrLength)
      return malformed();
    if (E.ExitKind == FragmentExit::Kind::Direct) {
      // The CTI's rel32 is its last four bytes; stubs follow the body, and
      // the stub's final jmp is preceded by the exit-id (or arm target) mov
      // whose imm32 ends exactly where the jmp begins. All in 64-bit:
      // StubOff near UINT32_MAX must not wrap the +4 into a comparison that
      // accepts StubJmpOff < 4 (and then underflows the exit-id patch).
      uint64_t SlotLen = uint64_t(F.CodeSize) + F.StubsSize;
      if (E.CtiLen < 5 || E.StubOff < F.CodeSize ||
          uint64_t(E.StubOff) >= SlotLen ||
          uint64_t(E.StubJmpOff) < uint64_t(E.StubOff) + 4 ||
          uint64_t(E.StubJmpOff) + E.StubJmpLen > SlotLen ||
          E.StubJmpLen < 5 || E.StubJmpLen > MaxInstrLength)
        return malformed();
    } else if (E.Linked || E.IsIbArm || E.AlwaysThroughStub) {
      return malformed();
    }
    // On save a link into a doomed fragment has no index: not quiescent.
    if (E.Linked && Link >= NumFrags)
      return malformed();
    Links.push_back(E.Linked ? Link : ~0u);
    return true;
  }

  /// The tables after the fragments, in image order. Each is sorted
  /// strictly increasing by key: that rejects duplicates (which apply()
  /// would resolve silently) and pins the canonical serialization.
  template <class IO> bool tables(IO &P, Image &Img) {
    auto Entry = [&](FragmentEntry &E, const FragmentEntry *Prev) {
      uint32_t Idx = indexOf(E.Frag);
      uint8_t Marked = E.Marked;
      P.u32(E.Tag);
      P.u32(Idx);
      P.u32(E.HeadCounter);
      P.u8(Marked);
      if (!got(P))
        return false;
      if ((Idx != ~0u && (Idx >= Frags.size() || Frags[Idx]->Tag != E.Tag)) ||
          (Prev && E.Tag <= Prev->Tag))
        return malformed();
      E.Frag = Idx == ~0u ? nullptr : Frags[Idx];
      E.Marked = Marked != 0;
      E.Used = true;
      // With traces on, a live basic block under a marked tag has always
      // been promoted to a trace head; the runtime asserts as much on the
      // tag's next re-mark.
      if (RT.Config.EnableTraces && E.Marked && E.Frag && !E.Frag->isTrace() &&
          !E.Frag->IsTraceHead)
        return malformed();
      return true;
    };
    using IbSite = std::pair<AppPc, Runtime::IbSiteProfile>;
    auto Site = [&](IbSite &S, const IbSite *Prev) {
      Runtime::IbSiteProfile &Prof = S.second;
      P.u32(S.first);
      P.u64(Prof.Total);
      P.u64(Prof.Other);
      for (unsigned K = 0; K != Runtime::IbSiteProfile::MaxTargets; ++K) {
        P.u32(Prof.Targets[K]);
        P.u64(Prof.Counts[K]);
      }
      return got(P) && (!Prev || S.first > Prev->first || malformed());
    };
    // Shadows are plain cache-resident basic blocks walked above; only the
    // tag binding is extra.
    using Shadow = std::pair<AppPc, Fragment *>;
    auto ShadowBb = [&](Shadow &S, const Shadow *Prev) {
      uint32_t Idx = indexOf(S.second);
      P.u32(S.first);
      P.u32(Idx);
      if (!got(P))
        return false;
      if (Idx >= Frags.size() || Frags[Idx]->Tag != S.first ||
          Frags[Idx]->isTrace() || (Prev && S.first <= Prev->first))
        return malformed();
      S.second = Frags[Idx];
      return true;
    };
    constexpr size_t SiteBytes =
        4 + 8 + 8 + 12 * Runtime::IbSiteProfile::MaxTargets;
    return seq(P, Img.Entries, MaxTableEntries, 13, Entry) &&
           seq(P, Img.IbSites, MaxIbSites, SiteBytes, Site) &&
           seq(P, Img.Shadows, MaxFragments, 8, ShadowBb) &&
           predictors(P, Img.Pred);
  }

  template <class IO> bool predictors(IO &P, BranchPredictors &Pred) {
    P.bytes(Pred.condTable(), BranchPredictors::CondEntries);
    if (!got(P))
      return false;
    for (unsigned I = 0; I != BranchPredictors::CondEntries; ++I)
      if (Pred.condTable()[I] > 3)
        return malformed(); // two-bit counters
    for (unsigned I = 0; I != BranchPredictors::BtbEntries; ++I)
      P.u32(Pred.btb()[I]);
    for (unsigned I = 0; I != BranchPredictors::RasDepth; ++I)
      P.u32(Pred.ras()[I]);
    P.u32(Pred.rasTop());
    return got(P);
  }
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
  H = fnvU32(H, C.BbCacheSize);
  H = fnvU32(H, C.TraceCacheSize);
  H = fnvU32(H, uint32_t(C.Sharing));
  H = fnvU32(H, C.MaxThreads);
  H = fnvU64(H, C.ThreadQuantum);
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
  Walk W(RT, /*HashApp=*/false);

  // Live fragments in registration order (restore order reproduces the
  // FIFO). Doomed fragments are dropped: their pending slots become plain
  // free space, which is exactly the state an uninterrupted run reaches at
  // its next allocation (quiescence means no guard pcs block reclaim).
  for (const auto &F : RT.Fragments)
    if (!F->Doomed) {
      W.Index.emplace(F.get(), uint32_t(W.Frags.size()));
      W.Frags.push_back(F.get());
    }

  Preamble H;
  H.ConfigHash = configHash(RT);
  H.AppHash = fnv1aInit();
  for (const Fragment *F : W.Frags)
    for (const AppRange &R : F->AppRanges)
      H.AppHash = hashAppRange(H.AppHash, M, R);
  H.WriteGen = M.codeWriteLog().size();
  H.Base = W.Base;
  for (unsigned K = 0; K != 2; ++K) {
    H.Bounds[2 * K] = W.Start[K] - W.Base;
    H.Bounds[2 * K + 1] = W.End[K] - W.Base;
  }

  // The tables in canonical key order, so identical warmed states
  // serialize to identical bytes regardless of hash-map history.
  Image Img;
  RT.Table.forEachEntry(
      [&](const FragmentEntry &E) { Img.Entries.push_back(E); });
  std::sort(Img.Entries.begin(), Img.Entries.end(),
            [](const FragmentEntry &A, const FragmentEntry &B) {
              return A.Tag < B.Tag;
            });
  Img.IbSites.assign(RT.IbProfiles.begin(), RT.IbProfiles.end());
  std::sort(Img.IbSites.begin(), Img.IbSites.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  Img.Shadows.assign(RT.ShadowBbs.begin(), RT.ShadowBbs.end());
  std::sort(Img.Shadows.begin(), Img.Shadows.end());
  Img.Pred = M.predictors();

  ByteWriter P;
  if (!W.preamble(P, H) || !W.fragmentCount(P))
    return false;
  std::vector<uint8_t> Slot;
  for (Fragment *F : W.Frags) {
    Slot.clear();
    M.mem().forEachSpan(F->CacheAddr, F->CodeSize + F->StubsSize,
                        [&](const uint8_t *Run, uint32_t Len) {
                          Slot.insert(Slot.end(), Run, Run + Len);
                        });
    if (!W.fragment(P, *F, Slot))
      return false;
  }
  if (!W.tables(P, Img))
    return false;

  ByteWriter Header;
  Header.u32(CacheImageMagic);
  Header.u32(CacheImageVersion);
  Header.u64(fnv1a(fnv1aInit(), P.Buf.data(), P.Buf.size()));
  Out = std::move(Header.Buf);
  Out.insert(Out.end(), P.Buf.begin(), P.Buf.end());

  RT.S.PersistBytesWritten += Out.size();
  RT.obsEvent(TraceEventKind::PersistSaved, uint32_t(W.Frags.size()),
              uint32_t(Out.size()));
  return true;
}

//===----------------------------------------------------------------------===//
// Parse (validation, relocation, exit renumbering — no side effects)
//===----------------------------------------------------------------------===//

LoadStatus CacheCodec::parse(Runtime &RT, const uint8_t *Data, size_t Size,
                             Image &Img, bool Trusted) {
  // The target must be cold: restoring over built state would corrupt the
  // link graph and exit-record numbering.
  if ((RT.TheClient && !RT.TheClient->persistSafe()) ||
      RT.Config.Mode != ExecMode::Cache || !RT.Fragments.empty() ||
      !RT.ExitRecords.empty() || RT.Table.size() != 0)
    return LoadStatus::NotCold;

  if (!Data || Size < HeaderBytes)
    return LoadStatus::Truncated;
  ByteReader Header(Data, HeaderBytes);
  uint32_t Magic = 0, Version = 0;
  uint64_t Checksum = 0;
  Header.u32(Magic);
  Header.u32(Version);
  Header.u64(Checksum);
  if (Magic != CacheImageMagic)
    return LoadStatus::BadMagic;
  if (Version != CacheImageVersion)
    return LoadStatus::BadVersion;
  const uint8_t *Payload = Data + HeaderBytes;
  size_t PayloadSize = Size - HeaderBytes;
  if (fnv1a(fnv1aInit(), Payload, PayloadSize) != Checksum)
    return LoadStatus::BadChecksum;

  Walk W(RT, /*HashApp=*/!Trusted);
  ByteReader R(Payload, PayloadSize);
  Preamble H;
  if (!W.preamble(R, H))
    return W.Status;

  // SMC generation: on the machine the image was saved from, the log must
  // not have grown since (no code writes behind the image's back); a fresh
  // machine has an empty log, and the app-code hash below is the actual
  // content check.
  uint64_t CurGen = RT.M.codeWriteLog().size();
  if (!Trusted && CurGen != 0 && CurGen != H.WriteGen)
    return LoadStatus::SmcGeneration;

  if (!W.fragmentCount(R))
    return W.Status;
  Img.Frags.reserve(std::min<size_t>(W.NumFrags, R.remaining() / 30));
  for (uint32_t FI = 0; FI != W.NumFrags; ++FI) {
    Fragment &F = *Img.Frags.emplace_back(std::make_unique<Fragment>());
    if (!W.fragment(R, F, Img.Slots.emplace_back()))
      return W.Status;
    W.Frags.push_back(&F);
  }

  // Cross-fragment checks: link targets must carry the tag the exit was
  // linked for, and slots must not overlap (the target caches are empty,
  // so non-overlapping in-range slots are guaranteed carveable).
  const uint32_t *Link = W.Links.data();
  for (const auto &F : Img.Frags)
    for (FragmentExit &E : F->Exits) {
      uint32_t Idx = *Link++;
      if (!E.Linked)
        continue;
      E.LinkedTo = W.Frags[Idx];
      if (E.LinkedTo->Tag != E.TargetTag)
        return LoadStatus::Malformed;
    }
  {
    std::vector<std::pair<uint32_t, uint32_t>> Slots; // addr, rounded len
    Slots.reserve(Img.Frags.size());
    for (const auto &F : Img.Frags)
      Slots.emplace_back(F->CacheAddr, (F->CodeSize + F->StubsSize + 3u) & ~3u);
    std::sort(Slots.begin(), Slots.end());
    for (size_t I = 1; I < Slots.size(); ++I)
      if (Slots[I - 1].first + Slots[I - 1].second > Slots[I].first)
        return LoadStatus::Malformed;
  }

  if (!Trusted && W.AppHash != H.AppHash)
    return LoadStatus::AppImageMismatch;

  if (!W.tables(R, Img))
    return W.Status;
  if (!R.atEnd())
    return LoadStatus::Malformed; // trailing garbage

  // Relocate instruction bytes for the base shift (no-op when the image
  // loads at the base it was saved from), then renumber exit ids: the
  // image's ids were positions in the *saved* exit-record array; the
  // restored array is packed in restore order. Each stub's exit-id
  // immediate is patched, and linked exits join their target's incoming
  // list under the new id.
  uint32_t Delta = W.Base - H.Base; // mod 2^32: wrapping add relocates
  uint32_t SavedLo = H.Base;
  uint32_t SavedHi = H.Base + H.Bounds[3];
  uint32_t NextExitId = 0;
  Arena A(1u << 12);
  for (size_t FI = 0; FI != Img.Frags.size(); ++FI) {
    Fragment &F = *Img.Frags[FI];
    std::vector<uint8_t> &Slot = Img.Slots[FI];
    if (Delta != 0) {
      if (!relocateRange(Slot, 0, F.CodeSize, F.CacheAddr, Delta, SavedLo,
                         SavedHi, A))
        return LoadStatus::Malformed;
      for (const FragmentExit &E : F.Exits)
        if (E.ExitKind == FragmentExit::Kind::Direct &&
            !relocateRange(Slot, E.StubOff, E.StubJmpOff + E.StubJmpLen,
                           F.CacheAddr, Delta, SavedLo, SavedHi, A))
          return LoadStatus::Malformed;
    }
    for (FragmentExit &E : F.Exits) {
      if (E.ExitKind != FragmentExit::Kind::Direct)
        continue;
      E.ExitId = NextExitId++;
      if (!E.IsIbArm)
        write32At(Slot, E.StubJmpOff - 4, E.ExitId);
      if (E.Linked)
        E.LinkedTo->IncomingLinks.push_back(E.ExitId);
    }
  }
  return LoadStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Apply (infallible: the image is fully validated)
//===----------------------------------------------------------------------===//

void CacheCodec::apply(Runtime &RT, Image &Img, size_t ImageBytes,
                       bool Trusted) {
  Machine &M = RT.M;
  size_t NumFrags = Img.Frags.size();
  for (size_t FI = 0; FI != NumFrags; ++FI) {
    Fragment *F = Img.Frags[FI].get();
    RT.Fragments.push_back(std::move(Img.Frags[FI]));
    uint32_t Len = F->CodeSize + F->StubsSize;
    M.mem().writeBlock(F->CacheAddr, Img.Slots[FI].data(), Len);
    M.invalidateDecodeRange(F->CacheAddr, F->CacheAddr + Len);
    bool Carved = RT.CM.carveRange(F->FragKind, F->CacheAddr, Len);
    assert(Carved && "validated slot must be carveable from a cold cache");
    (void)Carved;
    RT.CM.registerFragment(F);

    // Link state came wired from parse: restoration neither re-patches
    // bytes (they are already linked) nor counts toward links_made.
    for (unsigned EI = 0; EI != F->Exits.size(); ++EI) {
      const FragmentExit &X = F->Exits[EI];
      if (X.ExitKind == FragmentExit::Kind::Direct) {
        assert(X.ExitId == RT.ExitRecords.size() &&
               "restore order must match exit-id numbering");
        RT.ExitRecords.emplace_back(F, EI);
      }
      if (X.IsIbArm) {
        RT.addIbArmPc(X.ctiAddr(*F), X.ExitId);
        RT.IbArmStubSites[X.stubJmpAddr(*F)] = X.ExitId;
      }
    }
  }

  for (const FragmentEntry &E : Img.Entries)
    RT.Table.slot(E.Tag) = E;
  RT.ShadowBbs.insert(Img.Shadows.begin(), Img.Shadows.end());
  M.predictors() = Img.Pred;
  RT.IbProfiles.insert(Img.IbSites.begin(), Img.IbSites.end());

  if (Trusted)
    return; // clone restore: the fork engine owns the cursor (pending SMC
            // events must still drain) and this is not a persist event

  // The write-log cursor starts past everything already in the log: those
  // events predate the image (the app-code hash vouched for the current
  // bytes), and a zero cursor would immediately flush every restored
  // fragment whose source was ever written.
  RT.CodeWriteCursor = M.codeWriteLog().size();

  RT.S.CacheWarmHits += NumFrags;
  RT.obsEvent(TraceEventKind::PersistLoaded, uint32_t(NumFrags),
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
