//===- ir/Build.cpp - Lifting raw bytes into InstrLists --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace rio;

namespace {

/// Application code held in one contiguous buffer: Bytes[0] is address Base.
struct FlatCode {
  const uint8_t *Bytes;
  size_t Size;
  AppPc Base;

  /// Up to MaxInstrLength bytes at \p Pc (their count in \p Avail), or null
  /// if \p Pc is outside the code.
  const uint8_t *window(AppPc Pc, uint8_t *, size_t &Avail) const {
    if (Pc < Base || Pc - Base >= Size)
      return nullptr;
    Avail = std::min<size_t>(Size - (Pc - Base), MaxInstrLength);
    return Bytes + (Pc - Base);
  }
  void copy(AppPc Pc, uint8_t *Dst, unsigned Len) const {
    std::memcpy(Dst, Bytes + (Pc - Base), Len);
  }
};

/// Application code in the paged image, decodable below Limit. Windows may
/// straddle pages (then they land in the caller's scratch buffer).
struct ImageCode {
  const MemoryImage &Mem;
  uint32_t Limit;

  ImageCode(const MemoryImage &Mem, uint32_t Limit)
      : Mem(Mem), Limit(std::min(Limit, Mem.size())) {}

  const uint8_t *window(AppPc Pc, uint8_t *Scratch, size_t &Avail) const {
    if (Pc >= Limit)
      return nullptr;
    Avail = std::min<uint32_t>(Limit - Pc, MaxInstrLength);
    return Mem.readWindow(Pc, uint32_t(Avail), Scratch);
  }
  void copy(AppPc Pc, uint8_t *Dst, unsigned Len) const {
    Mem.readBlock(Pc, Dst, Len);
  }
};

/// The one block walker behind scanBlock and liftBlock: it decodes each
/// instruction once, fills in \p Scan and, given a list, lifts the block
/// into it. The raw bytes behind every created Instr, bundles included, are
/// copied into the list's arena: windows may point into scratch or a page
/// that moves on a later copy-on-write fault, and a bundle may straddle
/// pages.
template <typename Code>
bool walk(const Code &C, AppPc Pc, unsigned MaxInstrs, InstrList *IL,
          LiftLevel Level, BlockScan &Scan) {
  Scan = BlockScan();
  AppPc Cur = Pc;
  AppPc BundleStart = Pc;
  unsigned BundleLen = 0;
  uint8_t Scratch[MaxInstrLength];
  // Level 3 and 4 lifts decode every instruction in full: the opcode comes
  // from that one decode.
  const bool Full =
      IL && (Level == LiftLevel::Decoded3 || Level == LiftLevel::Synth4);

  auto flushBundle = [&]() {
    if (BundleLen == 0)
      return;
    Arena &A = IL->arena();
    auto *Copy = static_cast<uint8_t *>(A.allocate(BundleLen, 1));
    C.copy(BundleStart, Copy, BundleLen);
    IL->append(Instr::createBundle(A, Copy, BundleLen, BundleStart));
    BundleLen = 0;
  };

  DecodedInstr DI;
  unsigned N = 0;
  while (N != MaxInstrs) {
    size_t Avail;
    const uint8_t *P = C.window(Cur, Scratch, Avail);
    if (!P)
      return false;
    Opcode Op;
    uint32_t Eflags = 0;
    int Len;
    if (Full) {
      if (!decodeInstr(P, Avail, Cur, DI))
        return false;
      Op = DI.Op;
      Len = DI.Length;
    } else if (!decodeOpcodeAndEflags(P, Avail, Op, Eflags, Len)) {
      return false;
    }
    ++N;
    const bool IsCti = opcodeIsCti(Op);
    const bool IsTerminator =
        IsCti || (opcodeInfo(Op).Flags & OPF_SYSCALL) != 0;

    if (IL && (IsTerminator || Level != LiftLevel::Bundle0)) {
      Arena &A = IL->arena();
      const uint8_t *Bytes = A.copyBytes(P, size_t(Len));
      Instr *I = nullptr;
      if (Full || IsTerminator) {
        if (!Full && !decodeInstr(Bytes, size_t(Len), Cur, DI))
          return false;
        I = Instr::createDecoded(A, DI, Bytes, Cur);
        if (!IsTerminator && Level == LiftLevel::Synth4)
          I->invalidateRawBits();
      } else if (Level == LiftLevel::Opcode2) {
        I = Instr::createOpcodeKnown(A, Bytes, unsigned(Len), Cur, Op, Eflags);
      } else {
        I = Instr::createRaw(A, Bytes, unsigned(Len), Cur);
      }
      flushBundle();
      IL->append(I);
    } else if (IL) {
      // Accumulate into the current Level 0 bundle.
      if (BundleLen == 0)
        BundleStart = Cur;
      BundleLen += unsigned(Len);
    }

    Cur += AppPc(Len);
    if (IsTerminator) {
      Scan.EndsInCti = IsCti;
      Scan.EndsInSyscall = !IsCti;
      break;
    }
  }
  // At the instruction cap without a CTI, flush what we have: the caller
  // decides how to terminate the block (the runtime appends a jump).
  if (IL)
    flushBundle();
  Scan.NumInstrs = N;
  Scan.ByteLength = Cur - Pc;
  Scan.FallThrough = Cur;
  return true;
}

} // namespace

bool rio::scanBlock(const uint8_t *Bytes, size_t Size, AppPc Base, AppPc Pc,
                    unsigned MaxInstrs, BlockScan &Scan) {
  return walk(FlatCode{Bytes, Size, Base}, Pc, MaxInstrs, nullptr,
              LiftLevel::Bundle0, Scan);
}

bool rio::liftBlock(InstrList &IL, const uint8_t *Bytes, size_t Size,
                    AppPc Base, AppPc Pc, unsigned MaxInstrs, LiftLevel Level) {
  BlockScan Scan;
  return walk(FlatCode{Bytes, Size, Base}, Pc, MaxInstrs, &IL, Level, Scan);
}

bool rio::liftBlock(InstrList &IL, const MemoryImage &Mem, uint32_t Limit,
                    AppPc Pc, unsigned MaxInstrs, LiftLevel Level,
                    BlockScan &Scan) {
  [[maybe_unused]] const uint64_t Epoch = Mem.mutEpoch();
  bool Ok = walk(ImageCode(Mem, Limit), Pc, MaxInstrs, &IL, Level, Scan);
  assert(Epoch == Mem.mutEpoch() &&
         "image mutated under lift: window pointers would dangle");
  return Ok;
}
